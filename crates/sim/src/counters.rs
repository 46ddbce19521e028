//! Closed counter sets: each owner declares its counters once, a write
//! is a field add (a misspelt one does not compile), and a by-name read
//! of a name outside the set panics instead of reading 0.

/// Declare a struct of `pub u64` counters, listed in name order (checked
/// at compile time), with `NAMES`, `counters()` and `counter(name)`.
#[macro_export]
macro_rules! counters {
    ($(#[$meta:meta])* $vis:vis struct $name:ident { $($field:ident,)* }) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $(#[doc = stringify!($field)] pub $field: u64,)*
        }

        impl $name {
            /// Every counter name of the set, in name order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];

            /// The non-zero counters as `(name, value)`, by name.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),*].into_iter().filter(|&(_, n)| n > 0)
            }

            /// One counter by name; panics on a name outside the set.
            pub fn counter(&self, name: &str) -> u64 {
                match name {
                    $(stringify!($field) => self.$field,)*
                    _ => panic!("{name:?} is not a {} counter", stringify!($name)),
                }
            }
        }

        const _: () = assert!(
            $crate::counters::in_name_order($name::NAMES),
            "declare counters in name order"
        );
    };
}

/// Is every name strictly below the next, bytewise?
#[doc(hidden)]
pub const fn in_name_order(names: &[&str]) -> bool {
    let mut i = 1;
    while i < names.len() {
        let (a, b) = (names[i - 1].as_bytes(), names[i].as_bytes());
        let mut j = 0;
        while j < a.len() && j < b.len() && a[j] == b[j] {
            j += 1;
        }
        // `b` is a prefix of `a`, or they part with `a` above.
        if j == b.len() || (j < a.len() && a[j] > b[j]) {
            return false;
        }
        i += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::in_name_order;

    crate::counters! {
        /// A test set.
        struct Probe {
            alpha,
            beta,
            gamma,
        }
    }

    #[test]
    fn counters_yields_the_non_zero_entries_by_name() {
        let mut p = Probe::default();
        assert_eq!(p.counters().count(), 0);
        p.gamma += 2;
        p.alpha += 1;
        assert_eq!(
            p.counters().collect::<Vec<_>>(),
            [("alpha", 1), ("gamma", 2)]
        );
        assert_eq!(Probe::NAMES, ["alpha", "beta", "gamma"]);
    }

    #[test]
    fn counter_reads_a_field_by_name() {
        let p = Probe {
            beta: 7,
            ..Probe::default()
        };
        assert_eq!((p.counter("alpha"), p.counter("beta")), (0, 7));
    }

    #[test]
    #[should_panic(expected = "\"nope\" is not a Probe counter")]
    fn counter_panics_on_a_name_outside_the_set() {
        Probe::default().counter("nope");
    }

    #[test]
    fn name_order_is_strict_and_bytewise() {
        assert!(in_name_order(&["a", "a_b", "ab", "b"]));
        assert!(!in_name_order(&["b", "a"]));
        assert!(!in_name_order(&["a", "a"]));
        assert!(!in_name_order(&["ab", "a"]));
    }
}
