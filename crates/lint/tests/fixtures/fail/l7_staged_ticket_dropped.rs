// lint-fixture: path=crates/accounting/src/server.rs rule=L7
// A staged body that forgets its ticket: the record is staged and the
// mutation applied, but nothing waits for the fsync and the caller
// cannot either — it would acknowledge a deposit a crash would lose.

struct Server {
    accounts: ShardMap<u64, u64>,
}

impl Server {
    fn deposit_staged(&self, key: u64, j: &Journal) -> Result<u64, AcctError> {
        self.accounts.update(&key, |acct| {
            j.stage(&record)?;
            *acct += 1;
            Ok(())
        })?;
        Ok(key)
    }
}
