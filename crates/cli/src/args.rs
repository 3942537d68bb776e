//! Dependency-free command-line parsing.

use std::collections::HashMap;
use std::fmt;

/// The selected subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `semtree generate` — synthesize a corpus to a Turtle-like file.
    Generate,
    /// `semtree index` — build an index from a corpus and save it.
    Index,
    /// `semtree query` — load an index and run a k-NN query.
    Query,
    /// `semtree audit` — inconsistency sweep over a corpus.
    Audit,
    /// `semtree stats` — partition statistics of a saved index.
    Stats,
    /// `semtree serve` — host a multi-process deployment's coordinator.
    Serve,
    /// `semtree worker` — join a deployment and host partitions.
    Worker,
    /// `semtree net-query` — query a running `serve` process over TCP.
    NetQuery,
    /// `semtree recover` — inspect and replay a write-ahead log offline.
    Recover,
    /// `semtree help`.
    Help,
}

/// Parsed command line: the subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// The subcommand.
    pub command: Command,
    /// `--key value` pairs (keys without the leading dashes).
    pub options: HashMap<String, String>,
}

/// Parsing failures, rendered to the user as usage errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    NoCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// An option flag without a value.
    MissingValue(String),
    /// A stray positional argument.
    Unexpected(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::NoCommand => f.write_str("no command given (try 'semtree help')"),
            ArgsError::UnknownCommand(c) => write!(f, "unknown command '{c}' (try 'semtree help')"),
            ArgsError::MissingValue(k) => write!(f, "option --{k} requires a value"),
            ArgsError::Unexpected(a) => write!(f, "unexpected argument '{a}'"),
        }
    }
}

impl std::error::Error for ArgsError {}

/// Whether `--key` is a valueless boolean flag for this command. Every
/// other option takes a value; flags are enumerated per command so the
/// same name can be a flag here and a valued option elsewhere.
fn is_flag(command: &Command, key: &str) -> bool {
    *command == Command::Recover && matches!(key, "stats" | "json")
}

/// Parse an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<ParsedArgs, ArgsError> {
    let mut iter = args.iter();
    let command = match iter.next().map(String::as_str) {
        None => return Err(ArgsError::NoCommand),
        Some("generate") => Command::Generate,
        Some("index") => Command::Index,
        Some("query") => Command::Query,
        Some("audit") => Command::Audit,
        Some("stats") => Command::Stats,
        Some("serve") => Command::Serve,
        Some("worker") => Command::Worker,
        Some("net-query") => Command::NetQuery,
        Some("recover") => Command::Recover,
        Some("help" | "--help" | "-h") => Command::Help,
        Some(other) => return Err(ArgsError::UnknownCommand(other.to_string())),
    };
    let mut options = HashMap::new();
    while let Some(arg) = iter.next() {
        let key = if let Some(k) = arg.strip_prefix("--") {
            k
        } else if let Some(k) = arg.strip_prefix('-') {
            // Short aliases: -k etc.
            k
        } else {
            return Err(ArgsError::Unexpected(arg.clone()));
        };
        if is_flag(&command, key) {
            options.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| ArgsError::MissingValue(key.to_string()))?;
        options.insert(key.to_string(), value.clone());
    }
    Ok(ParsedArgs { command, options })
}

impl ParsedArgs {
    /// A string option.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// A required string option, with a usage error otherwise.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// A numeric option with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("invalid --{key} value '{v}': {e}")),
        }
    }

    /// A u64 option with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("invalid --{key} value '{v}': {e}")),
        }
    }
}

/// The help text.
#[must_use]
pub fn usage() -> &'static str {
    "semtree — semantic triple index (SemTree, ICDE Workshops 2015)

USAGE:
    semtree <command> [--option value]...

COMMANDS:
    generate   synthesize a requirements corpus
                 --out FILE        output Turtle-like corpus (required)
                 --documents N     document count            [default 40]
                 --seed S          RNG seed                  [default 42]
    index      build an index from a corpus and save it
                 --corpus FILE     input corpus              (required)
                 --out FILE        output index file         (required)
                 --dims K          FastMap dimensions        [default 6]
                 --bucket B        KD-tree bucket size       [default 32]
                 --partitions M    1 or ≥3 partitions        [default 1]
    query      k-NN search against a saved index
                 --index FILE      saved index               (required)
                 --triple T        query triple, e.g. \"('A', Fun:accept_cmd, CmdType:start-up)\"
                 -k N              neighbours                [default 5]
    audit      inconsistency sweep over a corpus
                 --corpus FILE     input corpus              (required)
                 -k N              neighbourhood size        [default 10]
    stats      partition statistics of a saved index
                 --index FILE      saved index               (required)
    serve      host a multi-process deployment's coordinator (TCP)
                 --cluster-port P  worker-join port          [default 0 = ephemeral]
                 --client-port P   query port                [default 0 = ephemeral]
                 --workers N       workers to wait for       [default 2]
                 --partitions M    1 or ≥3 partitions        [default 3]
                 --dims K          point dimensionality      [default 2]
                 --bucket B        KD-tree bucket size       [default 32]
                 --capacity C      max points per partition  [default unlimited]
                 --sample N        fan-out sample size       [default 256]
                 --seed S          fan-out sample seed       [default 42]
                 --wal-dir DIR     write-ahead log directory (durability on)
                 --serve-workers N reactor executor threads  [default 4]
                 --serve-queue N   global in-flight bound    [default 1024]
                 --serve-depth N   per-connection pipeline   [default 64]
                 --serve-reactors N reactor shards (1-32)   [default 1]
    worker     join a deployment and host partitions until shutdown
                 --join ADDR       the coordinator's cluster-addr (required)
                 --wal-dir DIR     write-ahead log directory; a worker
                                   restarted with the same DIR recovers its
                                   partitions and rejoins under its old routes
    net-query  one operation against a running serve process
                 --addr ADDR       the coordinator's client-addr (required)
                 --op OP           insert | knn | knn-batch | range |
                                   stats | verify | metrics | shutdown
                                                             [default stats]
                 --point X,Y,...   query/insert point
                 --points P;Q;...  knn-batch query points
                 --payload N       insert payload            [default 0]
                 -k N              neighbours                [default 5]
                 --radius D        range radius
    recover    inspect and replay a write-ahead log offline (read-only)
                 --wal-dir DIR     write-ahead log directory (required)
                 --stats           per-partition snapshot compression:
                                   on-disk vs raw point bytes and the
                                   ratio, or no points for a
                                   routing-only partition
                 --json            machine-readable report on stdout
                                   (implies --stats)
    help       this text
"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let p = parse_args(&v(&[
            "index", "--corpus", "c.ttl", "--out", "i.idx", "-k", "5",
        ]))
        .unwrap();
        assert_eq!(p.command, Command::Index);
        assert_eq!(p.get("corpus"), Some("c.ttl"));
        assert_eq!(p.get("out"), Some("i.idx"));
        assert_eq!(p.get("k"), Some("5"));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(parse_args(&v(&[])).unwrap_err(), ArgsError::NoCommand);
        assert!(matches!(
            parse_args(&v(&["frobnicate"])).unwrap_err(),
            ArgsError::UnknownCommand(_)
        ));
        assert!(matches!(
            parse_args(&v(&["query", "--index"])).unwrap_err(),
            ArgsError::MissingValue(_)
        ));
        assert!(matches!(
            parse_args(&v(&["query", "stray"])).unwrap_err(),
            ArgsError::Unexpected(_)
        ));
    }

    #[test]
    fn recover_flags_take_no_value() {
        let p = parse_args(&v(&["recover", "--wal-dir", "d", "--stats", "--json"])).unwrap();
        assert_eq!(p.command, Command::Recover);
        assert_eq!(p.get("wal-dir"), Some("d"));
        assert!(p.flag("stats") && p.flag("json"));
        assert!(!p.flag("quiet"));
        // The same name stays a valued option for other commands.
        assert!(matches!(
            parse_args(&v(&["query", "--json"])).unwrap_err(),
            ArgsError::MissingValue(_)
        ));
    }

    #[test]
    fn help_aliases() {
        for alias in ["help", "--help", "-h"] {
            assert_eq!(parse_args(&v(&[alias])).unwrap().command, Command::Help);
        }
    }

    #[test]
    fn typed_getters() {
        let p = parse_args(&v(&["generate", "--documents", "7"])).unwrap();
        assert_eq!(p.get_usize("documents", 40).unwrap(), 7);
        assert_eq!(p.get_usize("missing", 40).unwrap(), 40);
        assert!(p.require("out").is_err());
        let bad = parse_args(&v(&["generate", "--documents", "x"])).unwrap();
        assert!(bad.get_usize("documents", 1).is_err());
    }

    #[test]
    fn usage_mentions_every_command() {
        for c in [
            "generate",
            "index",
            "query",
            "audit",
            "stats",
            "serve",
            "worker",
            "net-query",
            "recover",
        ] {
            assert!(usage().contains(c), "{c}");
        }
    }
}
