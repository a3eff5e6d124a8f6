//! Word tokenizer.
//!
//! Splits text into lowercase alphanumeric word tokens, the same behaviour
//! as Terrier's default `EnglishTokeniser`: a token is a maximal run of
//! alphanumeric characters; everything else is a separator. Tokens longer
//! than [`Tokenizer::max_token_len`] are dropped (Terrier drops tokens longer
//! than 20 characters — they are almost always junk in web data).

/// Configurable word tokenizer.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    /// Maximum token length kept; longer tokens are discarded.
    pub max_token_len: usize,
    /// Minimum token length kept; shorter tokens are discarded.
    pub min_token_len: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer {
            max_token_len: 20,
            min_token_len: 1,
        }
    }
}

impl Tokenizer {
    /// Create a tokenizer with the default (Terrier-like) limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Call `f` with each token of `text`, in order: every maximal run
    /// of alphanumeric characters, lowercased, kept when it is not empty
    /// and its length in characters is between
    /// [`min_token_len`](Self::min_token_len) and
    /// [`max_token_len`](Self::max_token_len) inclusive.
    ///
    /// This is the one tokenization loop; [`tokenize_into`](Self::tokenize_into)
    /// collects what it yields. It allocates nothing per token: a run that
    /// is already lowercase ASCII is handed to `f` as a slice of `text`,
    /// any other run is lowercased into one buffer reused for the whole
    /// call. Lowercasing can expand a character into several code points,
    /// some of them combining marks (`'İ'` → `i` + U+0307); only the
    /// alphanumeric ones are kept, so a token is its own tokenization.
    pub fn for_each_token(&self, text: &str, mut f: impl FnMut(&str)) {
        // The current run is `text[start..]` while it is plain lowercase
        // ASCII, and `buf` once it met any other character.
        let mut start: Option<usize> = None;
        let mut lowered = false;
        let mut buf = String::new();
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
                if !token.is_empty() && (self.min_token_len..=self.max_token_len).contains(&chars) {
                    f(token);
                }
                lowered = false;
                chars = 0;
            }
        }
    }

    /// Tokenize `text`, pushing lowercase tokens into `out`.
    ///
    /// Reusing `out` across calls avoids per-document allocations
    /// (workhorse-collection pattern).
    pub fn tokenize_into(&self, text: &str, out: &mut Vec<String>) {
        self.for_each_token(text, |token| out.push(token.to_owned()));
    }

    /// Tokenize `text` into a fresh vector.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.tokenize_into(text, &mut out);
        out
    }
}

/// Tokenize with the default tokenizer.
pub fn tokenize(text: &str) -> Vec<String> {
    Tokenizer::default().tokenize(text)
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
    fn min_len_filter() {
        let t = Tokenizer {
            min_token_len: 2,
            ..Tokenizer::default()
        };
        assert_eq!(t.tokenize("a bb c ddd"), vec!["bb", "ddd"]);
    }

    #[test]
    fn unicode_is_handled() {
        assert_eq!(tokenize("café münchen"), vec!["café", "münchen"]);
    }

    /// The loop before `for_each_token`: one fresh `String` per token.
    fn reference(t: &Tokenizer, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut current = String::new();
        for ch in text.chars().chain(std::iter::once(' ')) {
            if ch.is_alphanumeric() {
                current.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
            } else if !current.is_empty() {
                let len = current.chars().count();
                if len >= t.min_token_len && len <= t.max_token_len {
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
        let limits = [(1, 20), (2, 3), (0, 1)];
        let mut level = vec![String::new()];
        let mut strings = level.clone();
        for _ in 0..4 {
            level = level
                .iter()
                .flat_map(|s| alphabet.iter().map(move |c| format!("{s}{c}")))
                .collect();
            strings.extend(level.iter().cloned());
        }
        for (min_token_len, max_token_len) in limits {
            let t = Tokenizer {
                min_token_len,
                max_token_len,
            };
            for s in &strings {
                assert_eq!(
                    t.tokenize(s),
                    reference(&t, s),
                    "{s:?} {min_token_len}..={max_token_len}"
                );
            }
        }
    }

    #[test]
    fn every_token_is_its_own_tokenization() {
        // Lowercasing is idempotent on the alphanumeric code points it
        // yields, so re-tokenizing a token gives back exactly that token:
        // an analysis of one raw token equals the per-token step the
        // whole-text analysis applies to it.
        let t = Tokenizer::default();
        for c in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            if !c.is_alphanumeric() {
                continue;
            }
            for token in t.tokenize(&c.to_string()) {
                assert_eq!(t.tokenize(&token), vec![token.clone()], "{c:?}");
            }
        }
    }

    #[test]
    fn reuse_buffer() {
        let t = Tokenizer::default();
        let mut buf = Vec::new();
        t.tokenize_into("one two", &mut buf);
        assert_eq!(buf, vec!["one", "two"]);
        buf.clear();
        t.tokenize_into("three", &mut buf);
        assert_eq!(buf, vec!["three"]);
    }
}
