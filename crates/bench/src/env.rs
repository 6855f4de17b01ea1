//! The pre-slot variable environment, kept as a benchmark baseline.
//!
//! The runtime's tuples are fixed-width slot frames
//! (`aldsp_runtime::Env`). [`NamedEnv`] preserves the representation
//! they replaced — a persistent shared-tail list searched by name — so
//! the `env_repr` cases of the `tuple_pipeline` bench can compare the
//! two head to head.

use aldsp_xdm::item::Sequence;
use std::sync::Arc;

/// The pre-slot environment: a persistent (shared-tail) binding list
/// extended in O(1) and searched by name.
#[derive(Clone, Default)]
pub struct NamedEnv(Option<Arc<NamedNode>>);

struct NamedNode {
    var: String,
    value: Sequence,
    parent: NamedEnv,
}

impl NamedEnv {
    /// The empty environment.
    pub fn empty() -> NamedEnv {
        NamedEnv(None)
    }

    /// Extend with one binding (shadows earlier bindings of the same
    /// name).
    pub fn bind(&self, var: &str, value: Sequence) -> NamedEnv {
        NamedEnv(Some(Arc::new(NamedNode {
            var: var.to_string(),
            value,
            parent: self.clone(),
        })))
    }

    /// Look up a variable by name.
    pub fn get(&self, var: &str) -> Option<&Sequence> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if node.var == var {
                return Some(&node.value);
            }
            cur = &node.parent;
        }
        None
    }

    /// Number of bindings.
    pub fn depth(&self) -> usize {
        let mut n = 0;
        let mut cur = self;
        while let Some(node) = &cur.0 {
            n += 1;
            cur = &node.parent;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_xdm::item::Item;

    #[test]
    fn named_env_bind_lookup_shadow() {
        let e = NamedEnv::empty();
        assert!(e.get("x").is_none());
        let e1 = e.bind("x", vec![Item::int(1)]);
        let e2 = e1.bind("y", vec![Item::int(2)]);
        let e3 = e2.bind("x", vec![Item::int(3)]);
        assert_eq!(e1.get("x"), Some(&vec![Item::int(1)]));
        assert_eq!(e3.get("x"), Some(&vec![Item::int(3)]));
        assert_eq!(e3.get("y"), Some(&vec![Item::int(2)]));
        assert_eq!(e3.depth(), 3);
        assert_eq!(e1.depth(), 1);
    }
}
