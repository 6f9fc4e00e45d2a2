//! The command-line shape the trace binaries share: `--flag value`
//! pairs (every flag takes a value) in any order around at most one
//! positional argument.

/// The process arguments after the program name.
pub struct Args(Vec<String>);

impl Args {
    /// The arguments this process was started with.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).collect())
    }

    /// The value following the first occurrence of `name`, if any.
    pub fn flag(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    /// The first argument that is neither a `--flag` nor a flag's value.
    pub fn positional(&self) -> Option<&str> {
        let mut args = self.0.iter();
        while let Some(arg) = args.next() {
            if arg.starts_with("--") {
                args.next();
            } else {
                return Some(arg);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_is_found_on_either_side_of_flag_pairs() {
        let args = |list: &[&str]| Args(list.iter().map(|s| s.to_string()).collect());
        let before = args(&["t.clmtrace", "--window", "2"]);
        let between = args(&["--window", "2", "t.clmtrace", "--out", "r.json"]);
        for a in [&before, &between] {
            assert_eq!(a.positional(), Some("t.clmtrace"));
            assert_eq!(a.flag("--window"), Some("2"));
        }
        assert_eq!(between.flag("--out"), Some("r.json"));
        assert_eq!(before.flag("--out"), None);
        // A flag's value is never the positional, and a trailing flag has
        // no value.
        let flags_only = args(&["--out", "r.json", "--chrome"]);
        assert_eq!(flags_only.positional(), None);
        assert_eq!(flags_only.flag("--chrome"), None);
    }
}
