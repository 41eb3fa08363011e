//! Home of the `counters!` macro (exported at the crate root): each
//! counter set is declared once, as a list of documented names.

/// Declare a set of `u64` counters once.
///
/// `pub struct Stats { a, b, }` declares a plain set: the snapshot struct
/// (one `pub u64` field per counter, carrying its docs; `Debug, Default,
/// Clone, Copy, PartialEq, Eq`), `fields()` (every counter as `(name,
/// value)`, in declaration order) and `+=` (counter by counter).
/// `pub struct Atomic => pub struct Stats { .. }` declares an atomic set:
/// also the `AtomicU64` struct (same fields and docs) and `snapshot()`;
/// `Atomic: reset =>` adds `reset()`.
#[macro_export]
macro_rules! counters {
    (@reset $atomic:ident $(#[$smeta:meta])* $svis:vis struct $snap:ident {
        $( $(#[$fmeta:meta])* $field:ident, )*
    }) => {
        impl $atomic {
            /// Zero every counter.
            pub fn reset(&self) {
                $( self.$field.store(0, ::core::sync::atomic::Ordering::Relaxed); )*
            }
        }
    };
    ($(#[$ameta:meta])* $avis:vis struct $atomic:ident: reset => $($rest:tt)*) => {
        $crate::counters!($(#[$ameta])* $avis struct $atomic => $($rest)*);
        $crate::counters!(@reset $atomic $($rest)*);
    };
    ($(#[$ameta:meta])* $avis:vis struct $atomic:ident =>
     $(#[$smeta:meta])* $svis:vis struct $snap:ident {
        $( $(#[$fmeta:meta])* $field:ident, )*
    }) => {
        $crate::counters!($(#[$smeta])* $svis struct $snap { $( $(#[$fmeta])* $field, )* });

        $(#[$ameta])*
        #[derive(Debug, Default)]
        $avis struct $atomic {
            $( $(#[$fmeta])* pub $field: ::core::sync::atomic::AtomicU64, )*
        }

        impl $atomic {
            /// Every counter's current value.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $field: self.$field.load(::core::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }
    };
    ($(#[$smeta:meta])* $svis:vis struct $snap:ident {
        $( $(#[$fmeta:meta])* $field:ident, )*
    }) => {
        $(#[$smeta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        $svis struct $snap {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $snap {
            /// Every counter as `(name, value)`, in declaration order.
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($field)),*].len()] {
                [$( (stringify!($field), self.$field), )*]
            }
        }

        impl ::core::ops::AddAssign for $snap {
            fn add_assign(&mut self, other: Self) {
                $( self.$field += other.$field; )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::Relaxed;

    crate::counters! {
        struct Probe: reset => struct ProbeSnapshot {
            /// Documented counters work too.
            alpha,
            beta,
            gamma,
        }
    }

    #[test]
    fn default_is_all_zero() {
        let zero = [("alpha", 0), ("beta", 0), ("gamma", 0)];
        assert_eq!(ProbeSnapshot::default().fields(), zero);
        assert_eq!(Probe::default().snapshot().fields(), zero);
    }

    #[test]
    fn snapshot_reads_every_counter_and_reset_zeroes_them() {
        let p = Probe::default();
        p.alpha.fetch_add(1, Relaxed);
        p.beta.fetch_add(20, Relaxed);
        p.gamma.fetch_add(300, Relaxed);
        let s = p.snapshot();
        assert_eq!((s.alpha, s.beta, s.gamma), (1, 20, 300));
        assert_eq!(s.fields(), [("alpha", 1), ("beta", 20), ("gamma", 300)]);
        let mut sum = s;
        sum += s;
        assert_eq!(sum.fields(), [("alpha", 2), ("beta", 40), ("gamma", 600)]);
        p.reset();
        assert_eq!(p.snapshot(), ProbeSnapshot::default());
    }
}
