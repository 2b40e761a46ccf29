//! The circuit table: each distinct submitted qsim text parsed and
//! validated once per service (DESIGN.md §11), and the shared circuit it
//! hands out. The serve crate's only caller of `parse_circuit`.

use std::hash::Hasher;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use qsim_cache::Cache;
use qsim_circuit::parser::{parse_circuit, ParseError};
use qsim_circuit::{Circuit, GateOp};
use qsim_core::stablehash::StableHasher;

/// An immutable circuit shared by every job, cache key and gang member
/// that runs it, with its content hash computed at most once.
#[derive(Debug, Clone)]
pub struct SharedCircuit(Arc<(Circuit, OnceLock<u64>)>);

impl SharedCircuit {
    /// [`Circuit::content_hash`], computed on the first call and shared by
    /// every clone after it.
    pub fn content_hash(&self) -> u64 {
        *self.0 .1.get_or_init(|| self.0 .0.content_hash())
    }
}

impl Deref for SharedCircuit {
    type Target = Circuit;

    fn deref(&self) -> &Circuit {
        &self.0 .0
    }
}

impl From<Circuit> for SharedCircuit {
    fn from(circuit: Circuit) -> SharedCircuit {
        SharedCircuit(Arc::new((circuit, OnceLock::new())))
    }
}

/// Submitted texts and what they parsed to, keyed by the text's
/// [`StableHasher`] hash. Only successful parses are stored.
pub(crate) type CircuitTable = Cache<u64, (Arc<str>, SharedCircuit)>;

/// `parse_circuit(text)`, from `table` when this exact text was interned
/// before: the key is only a hash, so a hit must also match the stored
/// bytes, or it is a miss.
pub(crate) fn intern(table: &CircuitTable, text: &str) -> Result<SharedCircuit, ParseError> {
    let mut h = StableHasher::new();
    h.write(text.as_bytes());
    let key = h.finish();
    if let Some((_, circuit)) = table.get_if(&key, |(stored, _)| **stored == *text) {
        return Ok(circuit);
    }
    let circuit = SharedCircuit::from(parse_circuit(text)?);
    // Modeled weight: overhead, the text, and each op with its operands.
    let bytes = 256 + text.len() + circuit.ops.len() * (std::mem::size_of::<GateOp>() + 32);
    table.insert(key, (Arc::from(text), circuit.clone()), bytes as u64);
    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(text: &str) -> u64 {
        let mut h = StableHasher::new();
        h.write(text.as_bytes());
        h.finish()
    }

    #[test]
    fn shared_circuit_hashes_once_for_every_clone() {
        let circuit = qsim_circuit::library::ghz(5);
        let shared = SharedCircuit::from(circuit.clone());
        let twin = shared.clone();
        assert_eq!(twin.content_hash(), circuit.content_hash());
        assert_eq!(shared.0 .1.get(), Some(&circuit.content_hash()));
        assert!(Arc::ptr_eq(&shared.0, &twin.0));
        assert_eq!(*shared, circuit);
    }

    #[test]
    fn a_text_is_parsed_once_and_shared() {
        let table = CircuitTable::new(1 << 20);
        let text = "2\n0 h 0\n1 cz 0 1\n";
        let first = intern(&table, text).unwrap();
        let again = intern(&table, text).unwrap();
        assert!(Arc::ptr_eq(&first.0, &again.0));
        assert_eq!(*first, parse_circuit(text).unwrap());
        let s = table.stats();
        assert_eq!((s.misses, s.hits, s.insertions, s.entries), (1, 1, 1, 1));
    }

    /// The key is only a hash: an entry planted under another text's key
    /// must read as a miss, and the text gets its own circuit.
    #[test]
    fn a_planted_entry_under_another_texts_key_is_never_returned() {
        let table = CircuitTable::new(1 << 20);
        let (text, other) = ("2\n0 h 0\n", "3\n0 x 2\n");
        let planted = SharedCircuit::from(parse_circuit(other).unwrap());
        table.insert(key(text), (Arc::from(other), planted.clone()), 1);
        let got = intern(&table, text).unwrap();
        assert_eq!(*got, parse_circuit(text).unwrap());
        assert!(!Arc::ptr_eq(&got.0, &planted.0));
        let s = table.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        // The real text replaced the plant and now hits.
        assert!(Arc::ptr_eq(&intern(&table, text).unwrap().0, &got.0));
    }

    #[test]
    fn a_failed_parse_is_never_stored() {
        let table = CircuitTable::new(1 << 20);
        for text in ["2\nbroken", "2\n0 rz 0 nan\n", "0\n"] {
            let want = parse_circuit(text).unwrap_err();
            for _ in 0..2 {
                assert_eq!(intern(&table, text).unwrap_err(), want, "{text:?}");
            }
        }
        let s = table.stats();
        assert_eq!((s.insertions, s.entries, s.misses), (0, 0, 6));
    }
}
