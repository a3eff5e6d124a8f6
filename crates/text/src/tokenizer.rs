//! Word tokenizer.
//!
//! Splits text into lowercase alphanumeric word tokens, the same behaviour
//! as Terrier's default `EnglishTokeniser`: a token is a maximal run of
//! alphanumeric characters; everything else is a separator. Tokens longer
//! than [`Tokenizer::MAX_TOKEN_LEN`] characters are dropped (Terrier drops
//! tokens longer than 20 characters — they are almost always junk in web
//! data).

/// The word tokenizer of the one analysis pipeline. It holds no
/// configuration.
#[derive(Debug)]
pub struct Tokenizer;

impl Tokenizer {
    /// Minimum token length kept, in characters.
    pub const MIN_TOKEN_LEN: usize = 1;
    /// Maximum token length kept, in characters; longer tokens are
    /// discarded.
    pub const MAX_TOKEN_LEN: usize = 20;

    /// Call `f` with each token of `text`, in order: every maximal run
    /// of alphanumeric characters, lowercased, kept when it is not empty
    /// and its length in characters is between
    /// [`MIN_TOKEN_LEN`](Self::MIN_TOKEN_LEN) and
    /// [`MAX_TOKEN_LEN`](Self::MAX_TOKEN_LEN) inclusive.
    ///
    /// This is the one tokenization loop; [`tokenize`] collects what it
    /// yields. It allocates nothing per token: a run that is already
    /// lowercase ASCII is handed to `f` as a slice of `text`, any other
    /// run is lowercased into one buffer reused for the whole call.
    /// Lowercasing can expand a character into several code points,
    /// some of them combining marks (`'İ'` → `i` + U+0307); only the
    /// alphanumeric ones are kept, so a token is its own tokenization.
    ///
    /// An ASCII text (most of a web collection) is split byte by byte:
    /// there a character is a byte and lowercasing maps one byte to one,
    /// so a run's length in bytes is its length in characters.
    pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
        let mut buf = String::new();
        if text.is_ascii() {
            let bytes = text.as_bytes();
            let class = |i: usize| BYTE_CLASS[usize::from(bytes[i])];
            let mut i = 0;
            while i < bytes.len() {
                while i < bytes.len() && class(i) == SEPARATOR {
                    i += 1;
                }
                let start = i;
                let mut seen = SEPARATOR;
                while i < bytes.len() && class(i) != SEPARATOR {
                    seen |= class(i);
                    i += 1;
                }
                if (Self::MIN_TOKEN_LEN..=Self::MAX_TOKEN_LEN).contains(&(i - start)) {
                    let run = &text[start..i];
                    if seen & UPPER != 0 {
                        buf.clear();
                        buf.push_str(run);
                        buf.make_ascii_lowercase();
                        f(&buf);
                    } else {
                        f(run);
                    }
                }
            }
            return;
        }
        // The current run is `text[start..]` while it is plain lowercase
        // ASCII, and `buf` once it met any other character.
        let mut start: Option<usize> = None;
        let mut lowered = false;
        let mut chars = 0usize;
        // A trailing separator flushes the last run.
        for (i, ch) in text
            .char_indices()
            .chain(std::iter::once((text.len(), ' ')))
        {
            if ch.is_ascii_lowercase() || ch.is_ascii_digit() {
                if lowered {
                    buf.push(ch);
                } else {
                    start.get_or_insert(i);
                }
                chars += 1;
            } else if ch.is_alphanumeric() {
                if !lowered {
                    buf.clear();
                    buf.push_str(start.take().map_or("", |s| &text[s..i]));
                    lowered = true;
                }
                for lc in ch.to_lowercase().filter(|c| c.is_alphanumeric()) {
                    buf.push(lc);
                    chars += 1;
                }
            } else if lowered || start.is_some() {
                let token = match start.take() {
                    Some(s) => &text[s..i],
                    None => buf.as_str(),
                };
                if !token.is_empty() && (Self::MIN_TOKEN_LEN..=Self::MAX_TOKEN_LEN).contains(&chars)
                {
                    f(token);
                }
                lowered = false;
                chars = 0;
            }
        }
    }
}

/// Classes of an ASCII byte for the byte loop of
/// [`Tokenizer::for_each_token`]: one table load per byte instead of the
/// range tests of `is_ascii_alphanumeric` and `is_ascii_uppercase`.
const SEPARATOR: u8 = 0;
const LOWER_OR_DIGIT: u8 = 1;
const UPPER: u8 = 2;
static BYTE_CLASS: [u8; 256] = {
    let mut table = [SEPARATOR; 256];
    let mut b = 0u8;
    while b < 128 {
        if b.is_ascii_lowercase() || b.is_ascii_digit() {
            table[b as usize] = LOWER_OR_DIGIT;
        } else if b.is_ascii_uppercase() {
            table[b as usize] = UPPER;
        }
        b += 1;
    }
    table
};

/// Tokenize `text` into a fresh vector.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    Tokenizer::for_each_token(text, |token| out.push(token.to_owned()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(tokenize("Hello, world!"), vec!["hello", "world"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("RuSt IR"), vec!["rust", "ir"]);
    }

    #[test]
    fn keeps_digits() {
        assert_eq!(
            tokenize("trec 2009 web-track"),
            vec!["trec", "2009", "web", "track"]
        );
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n--- ").is_empty());
    }

    #[test]
    fn drops_overlong_tokens() {
        let long = "a".repeat(25);
        let text = format!("short {long} ok");
        assert_eq!(tokenize(&text), vec!["short", "ok"]);
    }

    #[test]
    fn unicode_is_handled() {
        assert_eq!(tokenize("café münchen"), vec!["café", "münchen"]);
    }

    /// The loop before `for_each_token`: one fresh `String` per token.
    fn reference(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut current = String::new();
        for ch in text.chars().chain(std::iter::once(' ')) {
            if ch.is_alphanumeric() {
                current.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
            } else if !current.is_empty() {
                let len = current.chars().count();
                if (Tokenizer::MIN_TOKEN_LEN..=Tokenizer::MAX_TOKEN_LEN).contains(&len) {
                    out.push(std::mem::take(&mut current));
                }
                current.clear();
            }
        }
        out
    }

    #[test]
    fn for_each_token_matches_the_string_per_token_loop() {
        // Every string of up to four characters over an alphabet of plain
        // and cased ASCII, separators, a combining mark and characters
        // whose lowercase expands ('İ') or changes ('ẞ', 'Σ', 'É').
        let alphabet = ['a', 'Z', '7', ' ', '-', 'İ', 'ẞ', 'Σ', 'É', '\u{307}'];
        let mut level = vec![String::new()];
        let mut strings = level.clone();
        for _ in 0..4 {
            level = level
                .iter()
                .flat_map(|s| alphabet.iter().map(move |c| format!("{s}{c}")))
                .collect();
            strings.extend(level.iter().cloned());
        }
        // Runs on either side of the length limit, counted in characters
        // after lowercasing.
        for n in Tokenizer::MAX_TOKEN_LEN - 1..=Tokenizer::MAX_TOKEN_LEN + 1 {
            let run = "a".repeat(n - 1);
            strings.extend([format!("{run}a"), format!("{run}İ-"), format!("Z{run} ẞ")]);
            // Pure ASCII, so split by the byte loop: a run that starts
            // uppercase, mixes case and ends in a digit, alone and
            // between separators.
            let mixed: String = (0..n - 1)
                .map(|i| if i % 3 == 0 { 'Q' } else { 'x' })
                .chain(std::iter::once('9'))
                .collect();
            assert!(mixed.starts_with('Q') && mixed.len() == n);
            strings.extend([mixed.clone(), format!("-{mixed} ok,{mixed}")]);
        }
        // Every ASCII byte, as a separator or inside a run.
        strings.extend(
            (0..128u8)
                .map(char::from)
                .map(|c| format!("a{c}B{c}{c}9{c}")),
        );
        // A long ASCII text with one non-ASCII character at its very end
        // takes the character loop for the whole text.
        let ascii: String = (0..200)
            .map(|i| ["Web", "TRACK", "2009", "a1B2", "--", " "][i % 6])
            .collect();
        strings.extend([
            format!("{ascii} {} é", "Xy7".repeat(7)),
            format!("{ascii}É"),
        ]);
        for s in &strings {
            assert_eq!(tokenize(s), reference(s), "{s:?}");
        }
    }

    #[test]
    fn every_token_is_its_own_tokenization() {
        // Lowercasing is idempotent on the alphanumeric code points it
        // yields, so re-tokenizing a token gives back exactly that token:
        // an analysis of one raw token equals the per-token step the
        // whole-text analysis applies to it.
        for c in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            if !c.is_alphanumeric() {
                continue;
            }
            for token in tokenize(&c.to_string()) {
                assert_eq!(tokenize(&token), vec![token.clone()], "{c:?}");
            }
        }
    }
}
