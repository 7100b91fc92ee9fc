//! Dictionary interning: dense `u32` ids for [`Value`]s.
//!
//! The enumeration hot paths compare, hash, and shuffle values constantly;
//! doing that on 16-byte [`Value`] enums wastes cache and forces every hash
//! key to cover 16 bytes per column. [`Dictionary`] maps each distinct value
//! to a dense [`ValueId`] (4 bytes) exactly once — after preprocessing,
//! joins, semijoins, index probes and dedup all run on ids, and values are
//! only decoded back at the answer boundary.
//!
//! Id 0 is always `⊥` ([`Value::Bottom`]), so `ValueId::BOTTOM` doubles as
//! the cheap "unbound" filler in enumeration bindings.

use crate::hash::SeededFastMap;
use crate::value::Value;
use std::sync::Arc;

/// A dense interned value id. Ids are only meaningful relative to the
/// [`Dictionary`] (equivalently, the [`CtxView`](crate::CtxView)) that
/// issued them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id of [`Value::Bottom`] in every dictionary.
    pub const BOTTOM: ValueId = ValueId(0);

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only value interner.
///
/// `intern` is amortized O(1); `value` (decode) is an array lookup. A
/// dictionary never forgets: ids stay valid for its whole lifetime, which is
/// what lets [`HashIndex`](crate::HashIndex) groups, cached columnar
/// relations and enumeration cursors reference values as plain `u32`s.
///
/// A dictionary may be a *layer* over a shared, immutable base
/// (`Dictionary::over`): lookups fall through to the base, and values the
/// base lacks get ids from the base's length up. Every id, base or layer,
/// is allocated by the same overflow-checked path.
#[derive(Clone, Debug)]
pub struct Dictionary {
    /// The lower layer: ids below `start` resolve there.
    base: Option<Arc<Dictionary>>,
    /// The id of `values[0]`.
    start: usize,
    map: SeededFastMap<Value, ValueId>,
    values: Vec<Value>,
}

impl Dictionary {
    /// A dictionary holding only `⊥` (at [`ValueId::BOTTOM`]).
    pub fn new() -> Dictionary {
        let mut d = Dictionary::layer(None, 0);
        let bottom = d.intern(Value::Bottom);
        debug_assert_eq!(bottom, ValueId::BOTTOM);
        d
    }

    /// A value-less layer whose first id is `start`.
    pub(crate) fn layer(base: Option<Arc<Dictionary>>, start: usize) -> Dictionary {
        Dictionary {
            base,
            start,
            map: SeededFastMap::default(),
            values: Vec::new(),
        }
    }

    /// A layer over the flat dictionary `base`: every value of `base` keeps
    /// its id, and new values get ids from `base.len()` up. Over an empty
    /// base this is a fresh [`Dictionary::new`].
    pub(crate) fn over(base: Arc<Dictionary>) -> Dictionary {
        assert!(base.base.is_none(), "layers stack one deep");
        match base.len() {
            0 => Dictionary::new(),
            start => Dictionary::layer(Some(base), start),
        }
    }

    /// The id for `v`, allocating one if `v` is new.
    #[inline]
    pub fn intern(&mut self, v: Value) -> ValueId {
        if let Some(id) = self.lookup(v) {
            return id;
        }
        self.push(v)
    }

    fn push(&mut self, v: Value) -> ValueId {
        let id =
            ValueId(u32::try_from(self.start + self.values.len()).expect("dictionary overflow"));
        self.values.push(v);
        self.map.insert(v, id);
        id
    }

    /// The id for `v` if it has been interned, without allocating. The
    /// constant-time membership tests use this: a value the dictionary has
    /// never seen cannot occur in any interned relation.
    #[inline]
    pub fn lookup(&self, v: Value) -> Option<ValueId> {
        // The base is flat (see `over`), so neither call below recurses.
        if let Some(&id) = self.base.as_ref().and_then(|b| b.map.get(&v)) {
            return Some(id);
        }
        self.map.get(&v).copied()
    }

    /// Decodes an id back to its value.
    #[inline]
    pub fn value(&self, id: ValueId) -> Value {
        let i = id.index();
        if i >= self.start {
            return self.values[i - self.start];
        }
        let base = self.base.as_ref().expect("id below the layer");
        base.values[i - base.start]
    }

    /// Number of distinct interned values (including `⊥`), base included.
    pub fn len(&self) -> usize {
        self.start + self.values.len()
    }

    /// Whether only `⊥` is interned.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Every value, indexed by id, of a dictionary with no lower layer.
    pub(crate) fn table(&self) -> &[Value] {
        debug_assert!(self.base.is_none() && self.start == 0, "layered");
        &self.values
    }

    /// Number of values this layer added on top of its base.
    pub(crate) fn own_len(&self) -> usize {
        self.values.len()
    }

    /// `this` as one flat dictionary (no base layer), sharing an existing
    /// table whenever one already holds every value: a layer that added
    /// nothing folds to its base, and a dictionary with no base is already
    /// flat. Otherwise the base is copied once and the layer appended.
    pub(crate) fn fold(this: &Arc<Dictionary>) -> Arc<Dictionary> {
        match &this.base {
            None => Arc::clone(this),
            Some(base) if this.values.is_empty() => Arc::clone(base),
            Some(base) => {
                let mut flat = (**base).clone();
                for &v in &this.values {
                    flat.push(v);
                }
                Arc::new(flat)
            }
        }
    }
}

impl Default for Dictionary {
    fn default() -> Dictionary {
        Dictionary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_is_id_zero() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(Value::Bottom), Some(ValueId::BOTTOM));
        assert_eq!(d.value(ValueId::BOTTOM), Value::Bottom);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(Value::Int(7));
        let b = d.intern(Value::Int(7));
        assert_eq!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn distinct_values_get_distinct_ids() {
        let mut d = Dictionary::new();
        let ids = [
            d.intern(Value::Int(1)),
            d.intern(Value::tagged(0, 1)),
            d.intern(Value::tagged(1, 1)),
            d.intern(Value::Bottom),
        ];
        assert_eq!(ids[3], ValueId::BOTTOM);
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn roundtrip() {
        let mut d = Dictionary::new();
        for v in [Value::Int(-3), Value::tagged(9, 4), Value::Bottom] {
            let id = d.intern(v);
            assert_eq!(d.value(id), v);
        }
    }

    #[test]
    fn layer_keeps_base_ids_and_folds_flat() {
        let mut base = Dictionary::new();
        let one = base.intern(Value::Int(1));
        let base = Arc::new(base);
        let mut layer = Dictionary::over(Arc::clone(&base));
        assert_eq!(
            layer.intern(Value::Int(1)),
            one,
            "base values keep their ids"
        );
        let two = layer.intern(Value::Int(2));
        assert_eq!(two.index(), base.len(), "new ids start at the watermark");
        assert_eq!(base.lookup(Value::Int(2)), None, "the base is untouched");
        assert_eq!(
            (layer.value(one), layer.value(two)),
            (Value::Int(1), Value::Int(2))
        );
        let flat = Dictionary::fold(&Arc::new(layer));
        assert!(flat.base.is_none());
        assert_eq!(flat.lookup(Value::Int(2)), Some(two));
        // A layer that added nothing folds to its base table.
        let empty = Arc::new(Dictionary::over(Arc::clone(&base)));
        assert!(Arc::ptr_eq(&Dictionary::fold(&empty), &base));
    }

    #[test]
    fn layer_at_the_u32_boundary_refuses_to_wrap() {
        let mut layer = Dictionary::layer(None, u32::MAX as usize);
        assert_eq!(layer.intern(Value::Int(1)), ValueId(u32::MAX));
        let wrapped =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| layer.intern(Value::Int(2))));
        let msg = wrapped.expect_err("id 2^32 must not be allocated");
        let msg = msg
            .downcast_ref::<String>()
            .expect("expect() panics with a String");
        assert!(msg.starts_with("dictionary overflow"), "{msg}");
        assert_eq!(layer.lookup(Value::Int(2)), None, "nothing was allocated");
    }

    #[test]
    fn lookup_does_not_allocate_ids() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(Value::Int(5)), None);
        assert!(d.is_empty());
    }
}
