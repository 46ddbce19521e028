//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use un_sim::mem::MemLedger;

proptest! {
    /// Ledger usage is always the sum of outstanding allocations, across
    /// any interleaving of allocs and frees.
    #[test]
    fn ledger_usage_is_sum(
        ops in prop::collection::vec((0usize..4, 1u64..1000, any::<bool>()), 1..100),
    ) {
        let mut ledger = MemLedger::new();
        let root = ledger.create_account("root", None);
        let accounts: Vec<_> = (0..4)
            .map(|i| ledger.create_account(&format!("a{i}"), Some(root)))
            .collect();
        let mut outstanding = [0u64; 4];
        for (acct, bytes, is_free) in ops {
            if is_free {
                let take = bytes.min(outstanding[acct]);
                if take > 0 {
                    ledger.free(accounts[acct], "mem", take).unwrap();
                    outstanding[acct] -= take;
                }
            } else {
                ledger.alloc(accounts[acct], "mem", bytes).unwrap();
                outstanding[acct] += bytes;
            }
            prop_assert_eq!(ledger.usage(root), outstanding.iter().sum::<u64>());
        }
    }
}
