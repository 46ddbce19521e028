//! Hierarchical memory / storage accounting.
//!
//! The paper's Table 1 reports two resource columns — RAM allocated at
//! runtime and on-disk image size — per NF flavor. In this reproduction
//! those numbers are not constants: each substrate (hypervisor, container
//! runtime, native driver) *allocates* into a [`MemLedger`] as it builds
//! the NF instance (guest RAM map, runtime shim, process RSS, image
//! layers…), and the Table 1 harness reads the ledger back.
//!
//! Accounts form a tree: `usage()` of an account includes all descendants,
//! so "RAM of the IPsec VM instance" is the sum of the hypervisor process,
//! guest kernel, and guest userspace accounts parented under it.

use std::collections::BTreeMap;
use std::fmt;

/// Handle to an account in a [`MemLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccountId(usize);

#[derive(Debug)]
struct Account {
    name: String,
    parent: Option<AccountId>,
    children: Vec<AccountId>,
    /// Labelled allocations local to this account (bytes).
    items: BTreeMap<String, u64>,
    freed: bool,
}

/// A tree of named accounts, each holding labelled byte allocations.
#[derive(Debug, Default)]
pub struct MemLedger {
    accounts: Vec<Account>,
    /// Slots of freed accounts, refilled by `create_account` so a
    /// ledger that churns instances stays as large as its peak.
    free: Vec<AccountId>,
}

/// Errors raised by ledger operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The referenced account was already freed.
    AccountFreed(String),
    /// Freeing more bytes than allocated under a label.
    Underflow { label: String, have: u64, want: u64 },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::AccountFreed(n) => write!(f, "account '{n}' already freed"),
            LedgerError::Underflow { label, have, want } => {
                write!(f, "free underflow on '{label}': have {have}, want {want}")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

impl MemLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an account, optionally parented under another.
    pub fn create_account(&mut self, name: &str, parent: Option<AccountId>) -> AccountId {
        let account = Account {
            name: name.to_string(),
            parent,
            children: Vec::new(),
            items: BTreeMap::new(),
            freed: false,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.accounts[id.0] = account;
                id
            }
            None => {
                self.accounts.push(account);
                AccountId(self.accounts.len() - 1)
            }
        };
        if let Some(p) = parent {
            self.accounts[p.0].children.push(id);
        }
        id
    }

    /// Record `bytes` under `label` in `account`.
    pub fn alloc(
        &mut self,
        account: AccountId,
        label: &str,
        bytes: u64,
    ) -> Result<(), LedgerError> {
        let acc = &mut self.accounts[account.0];
        if acc.freed {
            return Err(LedgerError::AccountFreed(acc.name.clone()));
        }
        *acc.items.entry(label.to_string()).or_insert(0) += bytes;
        Ok(())
    }

    /// Release `bytes` previously recorded under `label`.
    pub fn free(&mut self, account: AccountId, label: &str, bytes: u64) -> Result<(), LedgerError> {
        let acc = &mut self.accounts[account.0];
        let have = acc.items.get(label).copied().unwrap_or(0);
        if have < bytes {
            return Err(LedgerError::Underflow {
                label: label.to_string(),
                have,
                want: bytes,
            });
        }
        if have == bytes {
            acc.items.remove(label);
        } else {
            *acc.items.get_mut(label).unwrap() = have - bytes;
        }
        Ok(())
    }

    /// Free an entire account and its subtree: usage drops to zero, the
    /// subtree leaves its parent's roll-up, and every slot in it goes
    /// back to `create_account`. Until a slot is refilled its id still
    /// answers (`is_freed`, zero usage, `alloc` refused); after that
    /// the id names the new account, so none may be kept.
    pub fn free_account(&mut self, account: AccountId) {
        if self.accounts[account.0].freed {
            return;
        }
        if let Some(p) = self.accounts[account.0].parent {
            self.accounts[p.0].children.retain(|c| *c != account);
        }
        let mut stack = vec![account];
        while let Some(id) = stack.pop() {
            let acc = &mut self.accounts[id.0];
            acc.freed = true;
            acc.items.clear();
            stack.append(&mut acc.children);
            self.free.push(id);
        }
    }

    /// Accounts currently alive (freed ones are not counted).
    pub fn live_accounts(&self) -> usize {
        self.accounts.len() - self.free.len()
    }

    /// Bytes held directly by this account (excluding children).
    pub fn local_usage(&self, account: AccountId) -> u64 {
        self.accounts[account.0].items.values().sum()
    }

    /// Bytes held by this account and all descendants.
    pub fn usage(&self, account: AccountId) -> u64 {
        let mut total = 0;
        let mut stack = vec![account];
        while let Some(id) = stack.pop() {
            let acc = &self.accounts[id.0];
            total += acc.items.values().sum::<u64>();
            stack.extend(acc.children.iter().copied());
        }
        total
    }

    /// The account's name.
    pub fn name(&self, account: AccountId) -> &str {
        &self.accounts[account.0].name
    }

    /// The account's parent, if any.
    pub fn parent(&self, account: AccountId) -> Option<AccountId> {
        self.accounts[account.0].parent
    }

    /// True once [`MemLedger::free_account`] has been called on it.
    pub fn is_freed(&self, account: AccountId) -> bool {
        self.accounts[account.0].freed
    }

    /// Iterate over `(label, bytes)` entries local to an account.
    pub fn items(&self, account: AccountId) -> impl Iterator<Item = (&str, u64)> {
        self.accounts[account.0]
            .items
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// Direct children of an account.
    pub fn children(&self, account: AccountId) -> &[AccountId] {
        &self.accounts[account.0].children
    }

    /// Render the account subtree as an indented report (for harness output).
    pub fn report(&self, account: AccountId) -> String {
        let mut out = String::new();
        self.report_into(account, 0, &mut out);
        out
    }

    fn report_into(&self, id: AccountId, depth: usize, out: &mut String) {
        let acc = &self.accounts[id.0];
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{}: {} (local {})\n",
            acc.name,
            format_bytes(self.usage(id)),
            format_bytes(self.local_usage(id)),
        ));
        for (label, bytes) in &acc.items {
            out.push_str(&format!("{indent}  - {label}: {}\n", format_bytes(*bytes)));
        }
        for child in &acc.children {
            self.report_into(*child, depth + 1, out);
        }
    }
}

/// Human-readable byte formatting using the paper's MB (10^6) convention.
pub fn format_bytes(bytes: u64) -> String {
    if bytes >= 1_000_000_000 {
        format!("{:.1} GB", bytes as f64 / 1e9)
    } else if bytes >= 1_000_000 {
        format!("{:.1} MB", bytes as f64 / 1e6)
    } else if bytes >= 1_000 {
        format!("{:.1} kB", bytes as f64 / 1e3)
    } else {
        format!("{bytes} B")
    }
}

/// Convenience: megabytes (10^6 bytes, as the paper reports) to bytes.
pub const fn mb(n: u64) -> u64 {
    n * 1_000_000
}

/// Convenience: fractional megabytes to bytes.
pub fn mb_f(n: f64) -> u64 {
    (n * 1e6) as u64
}

/// Convenience: kilobytes (10^3) to bytes.
pub const fn kb(n: u64) -> u64 {
    n * 1_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_usage_roll_up() {
        let mut l = MemLedger::new();
        let vm = l.create_account("vm", None);
        let guest = l.create_account("guest", Some(vm));
        let proc_ = l.create_account("proc", Some(guest));
        l.alloc(vm, "hypervisor", 100).unwrap();
        l.alloc(guest, "kernel", 50).unwrap();
        l.alloc(proc_, "rss", 25).unwrap();
        assert_eq!(l.local_usage(vm), 100);
        assert_eq!(l.usage(vm), 175);
        assert_eq!(l.usage(guest), 75);
    }

    #[test]
    fn free_label_and_underflow() {
        let mut l = MemLedger::new();
        let a = l.create_account("a", None);
        l.alloc(a, "x", 10).unwrap();
        l.free(a, "x", 4).unwrap();
        assert_eq!(l.usage(a), 6);
        let err = l.free(a, "x", 7).unwrap_err();
        assert!(matches!(err, LedgerError::Underflow { .. }));
        l.free(a, "x", 6).unwrap();
        assert_eq!(l.usage(a), 0);
    }

    #[test]
    fn free_account_zeroes_subtree() {
        let mut l = MemLedger::new();
        let a = l.create_account("a", None);
        let b = l.create_account("b", Some(a));
        l.alloc(a, "x", 10).unwrap();
        l.alloc(b, "y", 20).unwrap();
        l.free_account(a);
        assert_eq!(l.usage(a), 0);
        assert!(l.is_freed(b));
        assert!(l.alloc(b, "y", 1).is_err());
    }

    #[test]
    fn freed_subtrees_are_unlinked_and_their_slots_recycled() {
        let mut l = MemLedger::new();
        let node = l.create_account("node", None);
        l.alloc(node, "base", 1).unwrap();
        for round in 0..100 {
            let inst = l.create_account("inst", Some(node));
            let guest = l.create_account("guest", Some(inst));
            l.alloc(guest, "rss", 10).unwrap();
            assert_eq!(l.usage(node), 11, "round {round}");
            l.free_account(inst);
            l.free_account(inst); // double free is a no-op
            assert_eq!(l.usage(node), 1);
            assert!(l.children(node).is_empty(), "tombstone left in the parent");
            assert_eq!(l.live_accounts(), 1);
        }
        // Three slots ever: the node and one two-account subtree.
        let fresh = l.create_account("fresh", Some(node));
        assert!(!l.is_freed(fresh));
        assert_eq!(l.usage(fresh), 0);
        assert_eq!(l.live_accounts(), 2);
        assert!(l.accounts.len() <= 3, "history grew the ledger");
    }

    #[test]
    fn report_mentions_labels() {
        let mut l = MemLedger::new();
        let a = l.create_account("node", None);
        l.alloc(a, "image", mb(522)).unwrap();
        let rep = l.report(a);
        assert!(rep.contains("node"));
        assert!(rep.contains("image"));
        assert!(rep.contains("522.0 MB"));
    }

    #[test]
    fn byte_formatting_uses_decimal_mb() {
        assert_eq!(format_bytes(mb(522)), "522.0 MB");
        assert_eq!(format_bytes(mb_f(19.4)), "19.4 MB");
        assert_eq!(format_bytes(kb(5)), "5.0 kB");
        assert_eq!(format_bytes(12), "12 B");
        assert_eq!(format_bytes(2_500_000_000), "2.5 GB");
    }
}
