//! The shared canonical-snapshot writer.
//!
//! Every byte-stable text export in the workspace — `coic sim
//! --canonical`, the `--metrics-out` snapshot — is emitted through this
//! one writer so they share a single format: lines
//! of space-separated tokens, where a token is either a bare word
//! ([`CanonicalWriter::word`]) or a `key=value` pair
//! ([`CanonicalWriter::field`]). Keys are emitted in the order the caller
//! provides them; callers that need sorted output iterate a `BTreeMap`.

use std::fmt::Display;

/// Builds a canonical text snapshot line by line.
#[derive(Debug, Default)]
pub struct CanonicalWriter {
    out: String,
    line_has_tokens: bool,
}

impl CanonicalWriter {
    /// An empty writer.
    pub fn new() -> CanonicalWriter {
        CanonicalWriter::default()
    }

    fn sep(&mut self) {
        if self.line_has_tokens {
            self.out.push(' ');
        }
        self.line_has_tokens = true;
    }

    /// Append a bare token to the current line.
    pub fn word(&mut self, token: &str) -> &mut Self {
        self.sep();
        self.out.push_str(token);
        self
    }

    /// Append a `key=value` token to the current line.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.sep();
        self.out.push_str(key);
        self.out.push('=');
        use std::fmt::Write as _;
        let _ = write!(self.out, "{value}");
        self
    }

    /// Append a `key=value` token with the fixed 6-decimal float format
    /// every canonical float in the workspace uses.
    pub fn float6(&mut self, key: &str, value: f64) -> &mut Self {
        self.field(key, format_args!("{value:.6}"))
    }

    /// Terminate the current line.
    pub fn end_line(&mut self) -> &mut Self {
        self.out.push('\n');
        self.line_has_tokens = false;
        self
    }

    /// The accumulated snapshot.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_and_fields_share_lines() {
        let mut w = CanonicalWriter::new();
        w.word("latency").float6("mean", 1.5).end_line();
        w.field("completed", 3u64).field("failed", 0u64).end_line();
        assert_eq!(w.finish(), "latency mean=1.500000\ncompleted=3 failed=0\n");
    }

    #[test]
    fn empty_writer_emits_nothing() {
        assert_eq!(CanonicalWriter::new().finish(), "");
    }
}
