//! Compiled specialization store — the inverted utility index.
//!
//! The naive utility stage (Definition 2, Eq. 1) evaluates, per request,
//! one cosine for every (candidate, specialization-result) pair:
//! `O(n · m · |R_q′|)` sorted merges over sparse surrogates. This module
//! compiles the §4.1 specialization store *once, offline* so the whole
//! per-candidate row falls out of a single sparse accumulation:
//!
//! ```text
//! Ũ(d|R_q′) = (1/H_{|R′|}) Σ_r cos(d, d′_r)/r
//!           = (1/‖d‖) Σ_{t ∈ d} d_t · w_q′(t)
//! where  w_q′(t) = Σ_r d′_{r,t} / (‖d′_r‖ · r · H_{|R′|})
//! ```
//!
//! i.e. unit-normalize every surrogate, fold the `1/rank` discount and the
//! harmonic normalizer directly into the term weights, and sum the ranked
//! list into one *folded vector* per specialization. Stacking the folded
//! vectors of a query's `m` specializations term-major gives every term a
//! row of `m` weights, so one pass over a candidate's terms scores it
//! against all of them instead of `m` merge-joins.
//!
//! Request-time scoring goes through a [`UtilityScorer`], built once per
//! model entry over its *active* specializations (usually a handful out
//! of the whole store). It holds **dense rows**: for each term any of
//! them holds, exactly `m` `f64` cells, `0.0` where a column's
//! specialization lacks the term, plus an all-zero row 0 for every term
//! none of them holds. No surrogate list is cloned on the hot path.
//!
//! The `TermId → row` lookup is one dense table **per thread**, not per
//! scorer: scoring a matrix stamps term `k` of the scorer into the
//! thread's table as row `k + 1`, and un-stamps it back to 0 on the way
//! out (see `Stamped`). A term the scorer lacks, or one past the table,
//! reads 0, the zero row. Every candidate term therefore costs the same
//! — one load for its row, `m` multiply-adds — and the kernel has no
//! data-dependent branch. It walks a candidate's terms once per block of
//! at most 8 columns, accumulating in a `[f64; W]` register array whose
//! width `W` is a const generic, dispatched once per block. Serving
//! engines keep one scorer per model entry, so a table per scorer would
//! be a vocabulary-sized array a thousand times over.
//!
//! **Why the dense rows are bit for bit a sparse accumulation.** Each cell
//! still sums its terms in ascending `TermId` order. A term its column
//! lacks adds `w · 0.0 = +0.0`, since [`SparseVector`] weights are finite
//! and ≥ 0. The accumulator starts at `+0.0`, and no round-to-nearest sum
//! turns it into `−0.0`, so adding `+0.0` is exact.
//! [`CompiledSpecStore::score_into_merge_join`] — a per-column merge-join
//! over the shared terms only, read from the folded vectors — is the
//! oracle the tests compare against bit for bit.
//!
//! All folded weights are `f64`, so the compiled path reproduces the naive
//! double-precision oracle ([`UtilityMatrix::compute`]) up to mere
//! re-association of the same sum (≈1e-12), which the equivalence suite
//! (`tests/utility_equivalence.rs`) asserts at 1e-9.

use crate::framework::SpecializationStore;
use crate::utility::{harmonic, UtilityMatrix, UtilityParams};
use serpdiv_index::SparseVector;
use serpdiv_text::TermId;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashMap;

/// Magic number of the serialized compiled-store image
/// (see [`CompiledSpecStore::to_bytes`]).
const SPEC_MAGIC: u32 = 0x5E9D_1F0C;
/// Version of the serialized image; bumped on any layout change.
const SPEC_VERSION: u32 = 1;

/// The offline-compiled, immutable specialization index.
///
/// Holds, for every specialization in the deployed store, its *folded
/// vector* — the ranked surrogate list collapsed into one sparse
/// `(TermId, f64)` row with rank discount, surrogate norms and the
/// `1/H_{|R′|}` normalizer pre-applied. The dense rows a request scores
/// against are built per model entry, over that entry's few
/// specializations only ([`Self::scorer`]).
#[derive(Debug, Default)]
pub struct CompiledSpecStore {
    /// specialization text → dense id (assignment order: sorted by name,
    /// so ids are reproducible across processes).
    ids: HashMap<String, u32>,
    names: Vec<String>,
    /// `|R_q′|` per specialization (diagnostics; empty lists stay 0-utility).
    list_lens: Vec<usize>,
    /// Folded vector per specialization, entries sorted by term id.
    folded: Vec<Vec<(TermId, f64)>>,
}

/// Largest term id the dense per-thread lookup table is grown to cover;
/// a layout reaching beyond it (possible only for adversarial serialized
/// stores — real vocabularies are contiguous) is looked up by binary
/// search rather than allocating gigabytes.
const DIRECT_INDEX_MAX_TERM: u32 = 1 << 21;

impl CompiledSpecStore {
    /// Compile the raw §4.1 [`SpecializationStore`] (this is the one-off
    /// deployment step; nothing here runs per request).
    pub fn compile(store: &SpecializationStore) -> Self {
        Self::build(store.iter().map(|(name, list)| (name, list.iter())))
    }

    /// Build from `(name, ranked surrogates)` pairs (rank 1 first).
    /// Duplicate names keep the first list.
    pub fn build<'a, S, L>(specs: S) -> Self
    where
        S: IntoIterator<Item = (&'a str, L)>,
        L: IntoIterator<Item = &'a SparseVector>,
    {
        // Collect and sort by name so spec ids are deterministic no matter
        // the iteration order of the backing map.
        let mut collected: Vec<(&str, Vec<&SparseVector>)> = specs
            .into_iter()
            .map(|(name, list)| (name, list.into_iter().collect()))
            .collect();
        collected.sort_by(|a, b| a.0.cmp(b.0));
        collected.dedup_by(|a, b| a.0 == b.0);

        let mut ids = HashMap::with_capacity(collected.len());
        let mut names = Vec::with_capacity(collected.len());
        let mut list_lens = Vec::with_capacity(collected.len());
        let mut folded = Vec::with_capacity(collected.len());
        for (name, ranked) in collected {
            let id = names.len() as u32;
            ids.insert(name.to_string(), id);
            names.push(name.to_string());
            list_lens.push(ranked.len());
            folded.push(fold_ranked_list(&ranked));
        }
        CompiledSpecStore {
            ids,
            names,
            list_lens,
            folded,
        }
    }

    /// Number of compiled specializations.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing was compiled.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Dense id of a specialization (`None` when unknown).
    pub fn spec_id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Name of specialization `id`.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// `|R_q′|` the specialization was folded from.
    pub fn list_len(&self, id: u32) -> usize {
        self.list_lens[id as usize]
    }

    /// Approximate compiled footprint in bytes (folded vectors + name
    /// table) — compare against the raw store's
    /// [`SpecializationStore::byte_size`].
    pub fn byte_size(&self) -> usize {
        let folded: usize = self
            .folded
            .iter()
            .map(|f| f.len() * std::mem::size_of::<(TermId, f64)>())
            .sum();
        let names: usize = self.names.iter().map(|n| n.len() + 16).sum();
        folded + names
    }

    /// Build the request-time scoring view over the given specializations,
    /// in column order. Unknown names yield all-zero columns (exactly the
    /// naive path's behavior for specs missing from the store).
    pub fn scorer<'a>(&self, specs: impl IntoIterator<Item = &'a str>) -> UtilityScorer {
        let cols: Vec<&[(TermId, f64)]> = specs.into_iter().map(|s| self.folded_of(s)).collect();
        let m = cols.len();
        let mut terms: Vec<TermId> = cols
            .iter()
            .flat_map(|f| f.iter().map(|&(t, _)| t))
            .collect();
        terms.sort_unstable();
        terms.dedup();
        // Row 0 stays all zeros: it is the row of every term not in `terms`.
        let mut rows = vec![0.0; (terms.len() + 1) * m];
        for (col, folded) in cols.iter().enumerate() {
            for &(t, w) in *folded {
                let k = terms
                    .binary_search(&t)
                    .expect("gathered from these vectors");
                rows[(k + 1) * m + col] = w;
            }
        }
        UtilityScorer { m, terms, rows }
    }

    /// The folded vector of specialization `name` (empty when unknown).
    fn folded_of(&self, name: &str) -> &[(TermId, f64)] {
        self.spec_id(name)
            .map_or(&[], |id| self.folded[id as usize].as_slice())
    }

    /// The equivalence oracle for [`UtilityScorer`]'s rows, read from the
    /// folded vectors instead of the scorer: one cell per name in `specs`,
    /// each a merge-join of `candidate` with that specialization's folded
    /// vector that sums the shared terms only, in ascending `TermId` order.
    ///
    /// # Panics
    /// Panics unless `out` has one cell per name.
    pub fn score_into_merge_join<'a>(
        &self,
        specs: impl IntoIterator<Item = &'a str>,
        candidate: &SparseVector,
        out: &mut [f64],
        params: UtilityParams,
    ) {
        let specs: Vec<&str> = specs.into_iter().collect();
        assert_eq!(out.len(), specs.len(), "one cell per specialization");
        let norm = f64::from(candidate.norm());
        for (cell, spec) in out.iter_mut().zip(specs) {
            let (a, b) = (candidate.entries(), self.folded_of(spec));
            let (mut i, mut j, mut acc) = (0, 0, 0.0f64);
            while i < a.len() && j < b.len() {
                match a[i].0.cmp(&b[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        acc += f64::from(a[i].1) * b[j].1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            *cell = finalize(acc, norm, params);
        }
    }

    /// Serialize the compiled store to a standalone binary image.
    ///
    /// The image persists the canonical state only — sorted names, list
    /// lengths, and the folded vectors with their exact `f64` weight bits
    /// — and [`from_bytes`](Self::from_bytes) rebuilds the name→id map, so
    /// a round-tripped store scores bit-identically to the original.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = serpdiv_index::ByteWriter::new();
        w.header(SPEC_MAGIC, SPEC_VERSION);
        w.count(self.names.len());
        for (i, name) in self.names.iter().enumerate() {
            w.str(name);
            w.count(self.list_lens[i]);
            let folded = &self.folded[i];
            w.count(folded.len());
            for &(t, weight) in folded {
                w.u32(t.0);
                w.u64(weight.to_bits());
            }
        }
        w.finish()
    }

    /// Decode a store serialized by [`to_bytes`](Self::to_bytes),
    /// validating structure before trusting any of it: magic, version,
    /// every length against the bytes present, UTF-8 names in strictly
    /// sorted order, strictly increasing term ids per folded vector,
    /// finite weights, and no trailing bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Self, serpdiv_index::DecodeError> {
        use serpdiv_index::{ByteReader, DecodeError};

        let mut r = ByteReader::new(data);
        r.header(SPEC_MAGIC, SPEC_VERSION)?;
        // A spec record is at least its three length fields.
        let num_specs = r.count(12)?;
        let mut names: Vec<String> = Vec::with_capacity(num_specs);
        let mut list_lens = Vec::with_capacity(num_specs);
        let mut folded = Vec::with_capacity(num_specs);
        for _ in 0..num_specs {
            let name = r.str()?;
            if names.last().is_some_and(|prev| prev.as_str() >= name) {
                return Err(DecodeError::Corrupt(
                    "specialization names not strictly sorted",
                ));
            }
            list_lens.push(r.u32()? as usize);
            let folded_len = r.count(12)?;
            let mut entries: Vec<(TermId, f64)> = Vec::with_capacity(folded_len);
            let mut prev_term: Option<u32> = None;
            for _ in 0..folded_len {
                let t = r.u32()?;
                let w = f64::from_bits(r.u64()?);
                if prev_term.is_some_and(|p| p >= t) {
                    return Err(DecodeError::Corrupt("folded terms not strictly increasing"));
                }
                prev_term = Some(t);
                if !w.is_finite() {
                    return Err(DecodeError::Corrupt("non-finite folded weight"));
                }
                entries.push((TermId(t), w));
            }
            names.push(name.to_string());
            folded.push(entries);
        }
        if r.finish().is_err() {
            return Err(DecodeError::Corrupt("trailing bytes after store"));
        }

        let ids = names
            .iter()
            .enumerate()
            .map(|(id, name)| (name.clone(), id as u32))
            .collect();
        Ok(CompiledSpecStore {
            ids,
            names,
            list_lens,
            folded,
        })
    }
}

/// Columns one kernel pass accumulates in registers; a wider scorer is
/// scored in blocks of at most this many.
const BLOCK: usize = 8;

thread_local! {
    /// The thread's dense `TermId → row` table. Invariant between uses:
    /// every entry 0 (the zero row). Grown to the largest
    /// `max_term + 1` this thread has stamped, never shrunk.
    static TERM_SLOTS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// A [`UtilityScorer`] whose `terms[k] → k + 1` are stamped into the
/// thread's [`TERM_SLOTS`] for as long as the value lives: rows look terms
/// up with a single load. Dropping it — on return or on unwind, so a panic
/// caught further up (the serving pool's `catch_unwind`) cannot leave the
/// table dirty — un-stamps exactly those terms.
struct Stamped<'a> {
    scorer: &'a UtilityScorer,
    table: &'a mut [u32],
    /// Whether the terms are in `table` at all: a scorer reaching past
    /// [`DIRECT_INDEX_MAX_TERM`] is looked up by binary search instead.
    dense: bool,
}

impl<'a> Stamped<'a> {
    fn new(scorer: &'a UtilityScorer, table: &'a mut Vec<u32>) -> Self {
        // `terms` is sorted: its last entry is the largest id to cover.
        let dense = match scorer.terms.last() {
            Some(max_term) if max_term.0 <= DIRECT_INDEX_MAX_TERM => {
                let need = max_term.0 as usize + 1;
                if table.len() < need {
                    table.resize(need, 0);
                }
                for (k, t) in scorer.terms.iter().enumerate() {
                    table[t.0 as usize] = k as u32 + 1;
                }
                true
            }
            _ => false,
        };
        Stamped {
            scorer,
            table,
            dense,
        }
    }

    /// The row of term `t`: one load from the stamped table (a binary
    /// search for an oversized scorer), and 0 — the zero row — for a term
    /// the scorer lacks.
    #[inline]
    fn row(&self, t: TermId) -> usize {
        if self.dense {
            self.table.get(t.0 as usize).map_or(0, |&row| row as usize)
        } else {
            self.scorer.terms.binary_search(&t).map_or(0, |k| k + 1)
        }
    }

    /// Score columns `col..col + W` of every candidate into its `m`-cell
    /// row of `out`: accumulate `w · cell` over the candidate's terms in
    /// ascending order into `W` registers, then normalize by the candidate
    /// norm, clamp and threshold.
    fn score_block<const W: usize, V: Borrow<SparseVector>>(
        &self,
        candidates: &[V],
        out: &mut [f64],
        col: usize,
        params: UtilityParams,
    ) {
        let (m, rows) = (self.scorer.m, &self.scorer.rows);
        for (cand, out_row) in candidates.iter().zip(out.chunks_exact_mut(m)) {
            let cand = cand.borrow();
            let mut acc = [0.0f64; W];
            for &(t, w) in cand.entries() {
                let start = self.row(t) * m + col;
                let cells: &[f64; W] = rows[start..start + W]
                    .try_into()
                    .expect("a block of W cells");
                let w = f64::from(w);
                for (a, &cell) in acc.iter_mut().zip(cells) {
                    *a += w * cell;
                }
            }
            let norm = f64::from(cand.norm());
            for (u, a) in out_row[col..col + W].iter_mut().zip(acc) {
                *u = finalize(a, norm, params);
            }
        }
    }
}

impl Drop for Stamped<'_> {
    fn drop(&mut self) {
        if self.dense {
            for t in &self.scorer.terms {
                self.table[t.0 as usize] = 0;
            }
        }
    }
}

/// Fold one ranked surrogate list into a single sparse row:
/// `w(t) = Σ_r d′_{r,t} / (‖d′_r‖ · r · H_{|R′|})`, entries sorted by term.
/// Per term, rank contributions are accumulated in ascending-rank order so
/// the folding is deterministic.
fn fold_ranked_list(ranked: &[&SparseVector]) -> Vec<(TermId, f64)> {
    let h = harmonic(ranked.len());
    if h == 0.0 {
        return Vec::new();
    }
    let mut acc: HashMap<TermId, f64> = HashMap::new();
    for (r, v) in ranked.iter().enumerate() {
        let norm = f64::from(v.norm());
        if norm == 0.0 {
            continue; // zero surrogates have cosine 0 with everything
        }
        let scale = 1.0 / (norm * (r + 1) as f64 * h);
        for &(t, w) in v.entries() {
            *acc.entry(t).or_insert(0.0) += f64::from(w) * scale;
        }
    }
    let mut entries: Vec<(TermId, f64)> = acc.into_iter().collect();
    entries.sort_unstable_by_key(|&(t, _)| t);
    entries
}

#[inline]
fn finalize(acc: f64, norm: f64, params: UtilityParams) -> f64 {
    if norm == 0.0 {
        return 0.0;
    }
    // The naive oracle clamps each cosine into [0,1]; folded accumulation
    // can only drift past 1 by float noise, so clamping the final value
    // preserves the [0,1] contract of UtilityMatrix.
    let u = (acc / norm).clamp(0.0, 1.0);
    if u < params.threshold_c {
        0.0
    } else {
        u
    }
}

/// Request-time scoring view: the active specializations' folded vectors
/// as dense rows (columns = the order the specs were passed to
/// [`CompiledSpecStore::scorer`]). It carries no vocabulary-sized table —
/// see the [module docs](self).
#[derive(Debug)]
pub struct UtilityScorer {
    m: usize,
    /// Sorted distinct terms of the active specializations.
    terms: Vec<TermId>,
    /// `(terms.len() + 1) · m` cells: row 0 all zeros, row `k + 1` the
    /// folded weight of `terms[k]` in every column.
    rows: Vec<f64>,
}

impl UtilityScorer {
    /// Number of columns (active specializations).
    pub fn num_specializations(&self) -> usize {
        self.m
    }

    /// Resident bytes of the scorer: terms and rows.
    pub fn byte_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.terms.len() * std::mem::size_of::<TermId>()
            + self.rows.len() * std::mem::size_of::<f64>()
    }

    /// Score `candidates[i]` into the `i`-th `m`-cell row of `out`, the
    /// scorer's terms stamped into the thread's lookup table (see
    /// [`Stamped`]) once for all of them; one kernel width per block of
    /// columns.
    fn score_rows<V: Borrow<SparseVector>>(
        &self,
        candidates: &[V],
        out: &mut [f64],
        params: UtilityParams,
    ) {
        assert_eq!(
            out.len(),
            candidates.len() * self.m,
            "one row per candidate"
        );
        TERM_SLOTS.with(|cell| {
            let mut table = cell.borrow_mut();
            let stamped = Stamped::new(self, &mut table);
            for col in (0..self.m).step_by(BLOCK) {
                match self.m - col {
                    1 => stamped.score_block::<1, V>(candidates, out, col, params),
                    2 => stamped.score_block::<2, V>(candidates, out, col, params),
                    3 => stamped.score_block::<3, V>(candidates, out, col, params),
                    4 => stamped.score_block::<4, V>(candidates, out, col, params),
                    5 => stamped.score_block::<5, V>(candidates, out, col, params),
                    6 => stamped.score_block::<6, V>(candidates, out, col, params),
                    7 => stamped.score_block::<7, V>(candidates, out, col, params),
                    _ => stamped.score_block::<BLOCK, V>(candidates, out, col, params),
                }
            }
        });
    }

    /// Score one candidate into `out` (`out.len() == m`) — the one-row
    /// case of [`matrix`](Self::matrix), bit for bit the row
    /// [`CompiledSpecStore::score_into_merge_join`] produces
    /// (`tests/utility_equivalence.rs` pins this). Stamping costs one
    /// store per scorer term, so score many rows through `matrix`.
    pub fn score_into(&self, candidate: &SparseVector, out: &mut [f64], params: UtilityParams) {
        self.score_rows(std::slice::from_ref(candidate), out, params);
    }

    /// The full `n × m` [`UtilityMatrix`] over `candidates`, one pass over
    /// each candidate's terms per block of columns, the scorer's terms
    /// stamped into the thread's lookup table once for all rows.
    /// `candidates` may hold owned, borrowed or `Arc`'d vectors.
    pub fn matrix<V: Borrow<SparseVector>>(
        &self,
        candidates: &[V],
        params: UtilityParams,
    ) -> UtilityMatrix {
        let n = candidates.len();
        let mut values = vec![0.0f64; n * self.m];
        self.score_rows(candidates, &mut values, params);
        UtilityMatrix::from_values(n, self.m, values)
    }

    /// [`matrix`](Self::matrix) with rows computed in parallel over
    /// `threads` scoped threads (row-disjoint chunks, so the result is
    /// identical to the sequential one). Falls back to sequential when the
    /// candidate set is small or `threads ≤ 1`.
    pub fn matrix_parallel<V: Borrow<SparseVector> + Sync>(
        &self,
        candidates: &[V],
        params: UtilityParams,
        threads: usize,
    ) -> UtilityMatrix {
        let n = candidates.len();
        let threads = threads.min(n.max(1));
        if threads <= 1 || n < 2 || self.m == 0 {
            return self.matrix(candidates, params);
        }
        let mut values = vec![0.0f64; n * self.m];
        let rows_per = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let chunks = values.chunks_mut(rows_per * self.m);
            for (chunk, cands) in chunks.zip(candidates.chunks(rows_per)) {
                // Each scoped thread stamps its own table.
                scope.spawn(move || self.score_rows(cands, chunk, params));
            }
        });
        UtilityMatrix::from_values(n, self.m, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::normalized_utility;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    /// `cand`'s utility for every specialization of `c`, in spec-id order.
    fn score_every_spec(
        c: &CompiledSpecStore,
        cand: &SparseVector,
        params: UtilityParams,
    ) -> Vec<f64> {
        let mut row = vec![0.0; c.len()];
        c.scorer((0..c.len() as u32).map(|id| c.name(id)))
            .score_into(cand, &mut row, params);
        row
    }

    fn store() -> (Vec<(String, Vec<SparseVector>)>, CompiledSpecStore) {
        let lists = vec![
            (
                "iphone".to_string(),
                vec![v(&[(1, 2.0), (2, 1.0)]), v(&[(1, 1.0), (3, 4.0)])],
            ),
            (
                "fruit".to_string(),
                vec![v(&[(4, 1.0)]), v(&[(4, 2.0), (5, 1.0)]), v(&[(5, 3.0)])],
            ),
            ("empty".to_string(), Vec::new()),
        ];
        let compiled = CompiledSpecStore::build(
            lists
                .iter()
                .map(|(name, list)| (name.as_str(), list.iter())),
        );
        (lists, compiled)
    }

    #[test]
    fn compiles_ids_and_shapes() {
        let (_, c) = store();
        assert_eq!(c.len(), 3);
        // Ids are assigned in sorted-name order.
        assert_eq!(c.spec_id("empty"), Some(0));
        assert_eq!(c.spec_id("fruit"), Some(1));
        assert_eq!(c.spec_id("iphone"), Some(2));
        assert_eq!(c.spec_id("unknown"), None);
        assert_eq!(c.name(1), "fruit");
        assert_eq!(c.list_len(1), 3);
        assert_eq!(c.list_len(0), 0);
        assert!(c.byte_size() > 0);
    }

    #[test]
    fn scorer_matches_naive_oracle() {
        let (lists, c) = store();
        let params = UtilityParams::default();
        let cands = [
            v(&[(1, 1.0), (4, 2.0)]),
            v(&[(2, 3.0), (3, 1.0), (5, 0.5)]),
            v(&[(9, 1.0)]),          // matches nothing
            SparseVector::default(), // zero candidate
        ];
        let scorer = c.scorer(["iphone", "fruit", "empty", "unknown"]);
        assert_eq!(scorer.num_specializations(), 4);
        let fast = scorer.matrix(&cands, params);
        for (i, cand) in cands.iter().enumerate() {
            for (j, name) in ["iphone", "fruit", "empty", "unknown"].iter().enumerate() {
                let list = lists
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, l)| l.as_slice())
                    .unwrap_or(&[]);
                let naive = normalized_utility(cand, list, params);
                assert!(
                    (fast.get(i, j) - naive).abs() < 1e-12,
                    "cell ({i},{j}): fast {} vs naive {naive}",
                    fast.get(i, j)
                );
            }
        }
    }

    #[test]
    fn threshold_is_applied() {
        let (_, c) = store();
        let cand = v(&[(1, 1.0), (4, 1.0)]);
        let loose = score_every_spec(&c, &cand, UtilityParams { threshold_c: 0.0 });
        let strict = score_every_spec(&c, &cand, UtilityParams { threshold_c: 0.99 });
        assert!(loose.iter().any(|&u| u > 0.0));
        assert!(strict.iter().all(|&u| u == 0.0 || u >= 0.99));
    }

    #[test]
    fn parallel_matrix_is_identical_to_sequential() {
        let (_, c) = store();
        let params = UtilityParams::default();
        let cands: Vec<SparseVector> = (0..97)
            .map(|i| {
                v(&[
                    (1 + (i % 5) as u32, 1.0 + i as f32 * 0.01),
                    (4, 0.5),
                    (7 + (i % 3) as u32, 2.0),
                ])
            })
            .collect();
        let scorer = c.scorer(["iphone", "fruit"]);
        let seq = scorer.matrix(&cands, params);
        for threads in [2, 3, 8, 200] {
            let par = scorer.matrix_parallel(&cands, params, threads);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn duplicate_spec_names_keep_first_list() {
        let a = [v(&[(1, 1.0)])];
        let b = [v(&[(2, 1.0)])];
        let c = CompiledSpecStore::build(vec![("x", a.iter()), ("x", b.iter())]);
        assert_eq!(c.len(), 1);
        let u = score_every_spec(&c, &v(&[(1, 1.0)]), UtilityParams::default());
        assert!(u[0] > 0.9, "first list (term 1) won: {u:?}");
    }

    #[test]
    fn binary_round_trip_scores_bit_identically() {
        let (_, c) = store();
        let bytes = c.to_bytes();
        let back = CompiledSpecStore::from_bytes(&bytes).expect("valid image");
        assert_eq!(back.len(), c.len());
        for id in 0..c.len() as u32 {
            assert_eq!(back.name(id), c.name(id));
            assert_eq!(back.list_len(id), c.list_len(id));
            assert_eq!(back.spec_id(c.name(id)), Some(id));
        }
        let params = UtilityParams { threshold_c: 0.0 };
        for cand in [
            v(&[(1, 1.0), (4, 2.0)]),
            v(&[(2, 3.0), (3, 1.0), (5, 0.5)]),
            v(&[(9, 1.0)]),
        ] {
            let a = score_every_spec(&c, &cand, params);
            let b = score_every_spec(&back, &cand, params);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "utilities must be exact");
            }
        }
        // An empty store round-trips too.
        let empty = CompiledSpecStore::build(Vec::<(&str, std::iter::Empty<&SparseVector>)>::new());
        let back = CompiledSpecStore::from_bytes(&empty.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corrupt_or_truncated_images_are_rejected() {
        use serpdiv_index::DecodeError;
        let (_, c) = store();
        let bytes = c.to_bytes();

        // Every truncation fails (never panics, never half-loads).
        for cut in 0..bytes.len() {
            assert!(
                CompiledSpecStore::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            CompiledSpecStore::from_bytes(&bad),
            Err(DecodeError::BadMagic)
        ));

        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            CompiledSpecStore::from_bytes(&bad),
            Err(DecodeError::BadVersion(99))
        ));

        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            CompiledSpecStore::from_bytes(&bad),
            Err(DecodeError::Corrupt(_))
        ));

        // Unsorted names: hand-build an image with "b" before "a".
        let a = [v(&[(1, 1.0)])];
        let unsorted = {
            let c1 = CompiledSpecStore::build(vec![("b", a.iter())]);
            let c2 = CompiledSpecStore::build(vec![("a", a.iter())]);
            let mut img = c1.to_bytes();
            // Splice c2's single spec record after c1's, bump the count.
            img[8..12].copy_from_slice(&2u32.to_le_bytes());
            img.extend_from_slice(&c2.to_bytes()[12..]);
            img
        };
        assert!(matches!(
            CompiledSpecStore::from_bytes(&unsorted),
            Err(DecodeError::Corrupt(
                "specialization names not strictly sorted"
            ))
        ));

        // A non-finite weight is corrupt: overwrite the first folded
        // weight with NaN bits. Layout of the first record for "empty"
        // (no folded entries) means we corrupt a later one — find the
        // first weight by rebuilding a single-spec store instead.
        let single = CompiledSpecStore::build(vec![("x", a.iter())]);
        let mut img = single.to_bytes();
        let w_off = img.len() - 8; // last field is the only weight
        img[w_off..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            CompiledSpecStore::from_bytes(&img),
            Err(DecodeError::Corrupt("non-finite folded weight"))
        ));
    }

    #[test]
    fn empty_store_scores_nothing() {
        let c = CompiledSpecStore::build(Vec::<(&str, std::iter::Empty<&SparseVector>)>::new());
        assert!(c.is_empty());
        let scorer = c.scorer(["ghost"]);
        let m = scorer.matrix(&[v(&[(1, 1.0)])], UtilityParams::default());
        assert_eq!(m.get(0, 0), 0.0);
    }

    // ---- the per-thread lookup table -----------------------------------

    fn table_is_clean() -> bool {
        TERM_SLOTS.with(|cell| cell.borrow().iter().all(|&row| row == 0))
    }

    fn table_len() -> usize {
        TERM_SLOTS.with(|cell| cell.borrow().len())
    }

    /// `specs`' scorer — `matrix` and `score_into` — against the
    /// merge-join oracle, bit for bit, at three thresholds; the table is
    /// clean afterwards.
    fn assert_matches_oracle(
        c: &CompiledSpecStore,
        specs: &[&str],
        cands: &[SparseVector],
        what: &str,
    ) {
        let scorer = c.scorer(specs.iter().copied());
        let m = specs.len();
        for threshold_c in [0.0, 0.05, 0.4] {
            let params = UtilityParams { threshold_c };
            let fast = scorer.matrix(cands, params);
            assert!(table_is_clean(), "{what}: matrix left terms stamped");
            let (mut row, mut oracle) = (vec![0.0; m], vec![0.0; m]);
            for (i, cand) in cands.iter().enumerate() {
                c.score_into_merge_join(specs.iter().copied(), cand, &mut oracle, params);
                scorer.score_into(cand, &mut row, params);
                for j in 0..m {
                    let bits = oracle[j].to_bits();
                    assert_eq!(
                        fast.get(i, j).to_bits(),
                        bits,
                        "{what} c={threshold_c} ({i},{j})"
                    );
                    assert_eq!(
                        row[j].to_bits(),
                        bits,
                        "{what} c={threshold_c} ({i},{j}) row"
                    );
                }
            }
            assert!(table_is_clean(), "{what}: score_into left terms stamped");
        }
    }

    /// Past `DIRECT_INDEX_MAX_TERM`: never stamped into a table.
    const BEYOND: u32 = DIRECT_INDEX_MAX_TERM + 7;

    /// Specs `a` (terms 1–3), `b` (terms 3–5, overlapping `a`), `far`
    /// (terms 900–901, disjoint) and — when `oversized` — `huge`, which
    /// reaches past `DIRECT_INDEX_MAX_TERM`.
    fn vocab_store(oversized: bool) -> CompiledSpecStore {
        let mut lists = vec![
            (
                "a",
                vec![v(&[(1, 2.0), (2, 1.0)]), v(&[(1, 1.0), (3, 4.0)])],
            ),
            ("b", vec![v(&[(3, 1.0), (4, 2.0)]), v(&[(5, 3.0)])]),
            ("far", vec![v(&[(900, 1.0), (901, 2.0)])]),
        ];
        if oversized {
            lists.push(("huge", vec![v(&[(2, 1.0), (BEYOND, 3.0)])]));
        }
        CompiledSpecStore::build(lists.iter().map(|(name, list)| (*name, list.iter())))
    }

    fn vocab_candidates() -> Vec<SparseVector> {
        vec![
            v(&[(1, 1.0), (3, 2.0), (4, 0.5)]),
            v(&[(2, 3.0), (5, 1.0), (900, 0.5)]),
            v(&[(901, 1.0), (3, 0.1)]),
            // Terms past every table this test grows, and past the cap.
            v(&[(3, 1.0), (5_000, 2.0), (BEYOND, 1.0)]),
            v(&[(777, 1.0)]), // matches nothing
            SparseVector::default(),
        ]
    }

    #[test]
    fn scorers_sharing_a_thread_leave_its_table_clean() {
        let c = vocab_store(false);
        let cands = vocab_candidates();
        // Overlapping, then disjoint, then back: a term the previous
        // scorer left stamped would resolve to the wrong row here.
        let specs: [&[&str]; 4] = [&["a", "b"], &["b"], &["far", "unknown"], &["b"]];
        for specs in specs {
            assert_matches_oracle(&c, specs, &cands, &specs.join("+"));
        }
        assert_eq!(table_len(), 902, "grown to the largest max_term + 1 met");
    }

    #[test]
    fn oversized_vocabulary_scores_by_binary_search() {
        let c = vocab_store(true);
        assert_matches_oracle(&c, &["huge", "a"], &vocab_candidates(), "huge");
        assert_eq!(table_len(), 0, "nothing was stamped, nothing allocated");
    }

    /// A candidate whose `borrow` panics when poisoned — the test-only way
    /// to unwind out of the middle of a matrix.
    struct Poisonable(SparseVector, bool);

    impl Borrow<SparseVector> for Poisonable {
        fn borrow(&self) -> &SparseVector {
            assert!(!self.1, "poisoned candidate");
            &self.0
        }
    }

    #[test]
    fn a_panic_mid_matrix_unstamps_the_table() {
        let c = vocab_store(false);
        let ab = c.scorer(["a", "b"]);
        let cands: Vec<Poisonable> = vocab_candidates()
            .into_iter()
            .enumerate()
            .map(|(i, cand)| Poisonable(cand, i == 2))
            .collect();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ab.matrix(&cands, UtilityParams::default())
        }));
        assert!(unwound.is_err(), "row 2 must have panicked");
        assert!(table_is_clean(), "the unwind must un-stamp");
        assert!(table_len() > 0, "…a table that was really stamped");
        assert_matches_oracle(&c, &["far", "b"], &vocab_candidates(), "after the panic");
    }

    /// The table is clean after every exit: scorers of random width (0
    /// and past one 8-column block included, some oversized), candidate
    /// terms past every table, and a panic at a random row, interleaved on
    /// one thread; after each call the next scorer matches the oracle.
    #[test]
    fn random_scorers_and_panics_leave_the_table_clean() {
        let c = vocab_store(true);
        let names = ["a", "b", "far", "huge", "ghost"];
        let pool = [1, 2, 3, 4, 5, 777, 900, 901, 5_000, BEYOND, u32::MAX];
        for seed in 0..96 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.gen_range(0..=12);
            let specs: Vec<&str> = (0..m)
                .map(|_| names[rng.gen_range(0..names.len())])
                .collect();
            let cands: Vec<SparseVector> = (0..rng.gen_range(1..=8))
                .map(|_| {
                    let nnz = rng.gen_range(0..=5);
                    SparseVector::from_pairs((0..nnz).map(|_| {
                        let t = pool[rng.gen_range(0..pool.len())];
                        (TermId(t), rng.gen_range(1..100) as f32 / 10.0)
                    }))
                })
                .collect();
            let poisoned = rng.gen_range(0..cands.len());
            let rows: Vec<Poisonable> = cands
                .iter()
                .enumerate()
                .map(|(i, cand)| Poisonable(cand.clone(), i == poisoned))
                .collect();
            let scorer = c.scorer(specs.iter().copied());
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scorer.matrix(&rows, UtilityParams::default())
            }));
            // A width-0 scorer has no column block, so it borrows no row.
            assert_eq!(unwound.is_err(), m > 0, "seed {seed} (m={m})");
            assert!(
                table_is_clean(),
                "seed {seed}: the unwind left terms stamped"
            );
            assert_matches_oracle(&c, &specs, &cands, &format!("seed {seed} (m={m})"));
        }
    }

    #[test]
    fn threads_stamp_their_own_tables() {
        let c = vocab_store(false);
        let cands = vocab_candidates();
        let specs: [&[&str]; 4] = [&["a", "b"], &["b"], &["far"], &["far", "a"]];
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for i in 0..8 {
                let (c, cands, start) = (&c, &cands, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        assert_matches_oracle(c, specs[i % 4], cands, "threaded");
                    }
                });
            }
        });
    }
}
