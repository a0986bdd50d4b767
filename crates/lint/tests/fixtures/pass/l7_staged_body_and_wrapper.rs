// lint-fixture: path=crates/accounting/src/server.rs rule=L7
// The staged-body/wrapper split: the body stages and applies under the
// shard guard and returns the ticket it owes; the wrapper waits on it
// before handing the value to anyone. A batching caller may call the
// body directly and wait once for many tickets.

struct Server {
    accounts: ShardMap<u64, u64>,
}

impl Server {
    fn deposit_staged(&self, key: u64, j: &Journal) -> Result<Staged<u64>, AcctError> {
        let mut owed = None;
        self.accounts.update(&key, |acct| {
            owed = Some(j.stage(&record)?);
            *acct += 1;
            Ok(())
        })?;
        Ok(Staged { value: key, owed })
    }

    fn deposit(&self, key: u64, j: &Journal) -> Result<u64, AcctError> {
        let staged = self.deposit_staged(key, j)?;
        if let Some(t) = staged.owed {
            j.wait(t)?;
        }
        Ok(staged.value)
    }
}
