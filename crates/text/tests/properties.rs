//! Randomized properties of the text-analysis substrate. Each test runs
//! `CASES` cases, case `seed` drawing its input from
//! `StdRng::seed_from_u64(seed)`; a failure names its seed, and rerunning
//! the test reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv_text::{is_stopword, porter_stem, tokenize, Analyzer, Vocabulary};
use std::ops::RangeInclusive;

const CASES: u64 = 256;

/// `[a-z]{lens}`.
fn lowercase(rng: &mut StdRng, lens: RangeInclusive<usize>) -> String {
    let len = rng.gen_range(lens);
    (0..len)
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

/// `\PC`: any non-control `char`, outside ASCII half the time (three
/// times in four from the BMP, where most letters live; otherwise from
/// the astral planes).
fn any_char(rng: &mut StdRng) -> char {
    if rng.gen_bool(0.5) {
        return char::from(rng.gen_range(0x20u8..0x7F));
    }
    loop {
        let code = if rng.gen_bool(0.75) {
            rng.gen_range(0x80..0x1_0000)
        } else {
            rng.gen_range(0x1_0000..=0x10_FFFF)
        };
        if let Some(c) = char::from_u32(code).filter(|c| !c.is_control()) {
            return c;
        }
    }
}

/// `\PC{0,max}`.
fn unicode(rng: &mut StdRng, max: usize) -> String {
    let len = rng.gen_range(0..=max);
    (0..len).map(|_| any_char(rng)).collect()
}

/// The stemmer never panics and never grows a word by more than one
/// character (the only growth rules append a single 'e').
#[test]
fn stemmer_never_grows_much() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let word = lowercase(&mut rng, 1..=30);
        let stem = porter_stem(&word);
        assert!(
            stem.len() <= word.len() + 1,
            "seed {seed}: {word:?} → {stem:?}"
        );
        assert!(!stem.is_empty(), "seed {seed}: {word:?} stems to nothing");
    }
}

/// Stemming output stays ASCII lowercase for ASCII input.
#[test]
fn stemmer_output_ascii_lowercase() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let word = lowercase(&mut rng, 1..=30);
        let stem = porter_stem(&word);
        assert!(
            stem.bytes().all(|b| b.is_ascii_lowercase()),
            "seed {seed}: {word:?} → {stem:?}"
        );
    }
}

/// Arbitrary unicode never panics the stemmer.
#[test]
fn stemmer_total_on_unicode() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let word = unicode(&mut rng, 12);
        let stemmed = std::panic::catch_unwind(|| porter_stem(&word));
        assert!(
            stemmed.is_ok(),
            "seed {seed}: the stemmer panicked on {word:?}"
        );
    }
}

/// Tokenizer output tokens are nonempty, lowercase, and contain no
/// separator characters.
#[test]
fn tokenizer_tokens_are_clean() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = unicode(&mut rng, 200);
        for tok in tokenize(&text) {
            assert!(!tok.is_empty(), "seed {seed}: empty token");
            assert!(
                tok.chars().all(|c| c.is_alphanumeric()),
                "seed {seed}: separator in {tok:?}"
            );
            // Lowercased fixpoint (some uppercase code points, e.g. "𝒮",
            // have no lowercase mapping and pass through unchanged).
            assert_eq!(tok, tok.to_lowercase(), "seed {seed}: not lowercase");
            assert!(tok.chars().count() <= 20, "seed {seed}: {tok:?} too long");
        }
    }
}

/// Tokenization is insensitive to surrounding separators.
#[test]
fn tokenizer_separator_invariance() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let words: Vec<String> = (0..rng.gen_range(0..10))
            .map(|_| lowercase(&mut rng, 1..=8))
            .collect();
        let spaced = words.join(" ");
        let punctuated = words.join(", !! ");
        assert_eq!(tokenize(&spaced), tokenize(&punctuated), "seed {seed}");
    }
}

/// The analyzer never emits an empty term and is deterministic. (A
/// stemmed term may coincide with a stopword string: the filter runs
/// before stemming by design.)
#[test]
fn analyzer_no_stopwords_and_deterministic() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = unicode(&mut rng, 200);
        let first = Analyzer::analyze(&text);
        assert!(
            first.iter().all(|t| !t.is_empty()),
            "seed {seed}: empty term"
        );
        assert_eq!(
            first,
            Analyzer::analyze(&text),
            "seed {seed}: not deterministic"
        );
    }
}

/// Interning the same stream twice yields identical ids, and every id
/// resolves back to its word.
#[test]
fn vocabulary_interning_stable() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let words: Vec<String> = (0..rng.gen_range(0..50))
            .map(|_| lowercase(&mut rng, 1..=10))
            .collect();
        let mut v = Vocabulary::new();
        let ids1: Vec<_> = words.iter().map(|w| v.intern(w)).collect();
        let ids2: Vec<_> = words.iter().map(|w| v.intern(w)).collect();
        assert_eq!(ids1, ids2, "seed {seed}");
        for w in &words {
            let id = v.id(w).unwrap();
            assert_eq!(v.term(id), Some(w.as_str()), "seed {seed}: {w:?}");
        }
    }
}

/// Stopword predicate agrees with the linear scan of the table.
#[test]
fn stopword_binary_search_correct() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let word = lowercase(&mut rng, 1..=10);
        let linear = serpdiv_text::stopwords::STOPWORDS.contains(&word.as_str());
        assert_eq!(is_stopword(&word), linear, "seed {seed}: {word:?}");
    }
}
