//! Strict command lines for the bench binaries.
//!
//! Each binary declares its flags in one [`Cli`]: the flags that take a
//! value and the boolean switches. [`Cli::parse`] runs before any work
//! and refuses everything else, so a misspelled flag cannot silently run
//! the default grid or write a report to a file named after another
//! flag:
//!
//! * `--help` anywhere prints the usage on stdout and exits 0;
//! * an unknown flag, a valued flag with no value, a value that starts
//!   with `--`, a flag given twice or a stray argument prints the error
//!   and the usage on stderr and exits 1.
//!
//! A value that does not parse ([`Args::parsed`], [`Args::pair`],
//! [`Args::field`]) or names nothing ([`Args::fail`], [`Args::methods`],
//! [`Args::targets`]) exits the same way. A failure after the command
//! line was accepted — an unreachable daemon, a report path that cannot
//! be written ([`Args::report`]) — prints one `error:` line and exits 1
//! ([`die`]).

use std::fs::File;
use std::io::Write as _;
use std::str::FromStr;

use gf2poly::TypeIiPentanomial;
use rgf2m_core::Method;
use rgf2m_fpga::Target;

/// One binary's command-line contract.
#[derive(Debug)]
pub struct Cli {
    /// The usage text, one line per flag.
    usage: &'static str,
    /// Flags that take the next argument as their value.
    valued: &'static [&'static str],
    /// Flags that take no value.
    switches: &'static [&'static str],
}

/// Why [`Cli::try_parse`] refused a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ArgError {
    /// `--help` was given.
    Help,
    /// The command line breaks the contract; the message says how.
    Bad(String),
}

/// A command line that passed its [`Cli`].
#[derive(Debug)]
pub struct Args {
    cli: &'static Cli,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Cli {
    /// Checks `args` (without the program name) against the declared
    /// flags.
    fn try_parse(&'static self, args: &[String]) -> Result<Args, ArgError> {
        if args.iter().any(|a| a == "--help") {
            return Err(ArgError::Help);
        }
        let mut out = Args {
            cli: self,
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let seen = out.values.iter().any(|(f, _)| f == arg) || out.switches.contains(&&**arg);
            if seen {
                return Err(ArgError::Bad(format!("{arg} given twice")));
            }
            if let Some(&flag) = self.valued.iter().find(|&&f| f == arg) {
                match rest.next() {
                    Some(v) if !v.starts_with("--") => out.values.push((flag, v.clone())),
                    _ => return Err(ArgError::Bad(format!("{flag} needs a value"))),
                }
            } else if let Some(&flag) = self.switches.iter().find(|&&f| f == arg) {
                out.switches.push(flag);
            } else if arg.starts_with('-') {
                return Err(ArgError::Bad(format!("unknown flag {arg}")));
            } else {
                return Err(ArgError::Bad(format!("unexpected argument {arg:?}")));
            }
        }
        Ok(out)
    }

    /// Checks the process's arguments, exiting as the module describes
    /// unless they pass.
    pub fn parse(&'static self) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match self.try_parse(&args) {
            Ok(args) => args,
            Err(ArgError::Help) => {
                print!("{}", self.usage);
                std::process::exit(0)
            }
            Err(ArgError::Bad(msg)) => self.fail(&msg),
        }
    }

    fn fail(&self, msg: &str) -> ! {
        eprint!("error: {msg}\n{}", self.usage);
        std::process::exit(1)
    }
}

/// A report file, created when the command line is read so that an
/// unwritable path fails the run before any work.
#[derive(Debug)]
pub struct Report<'a> {
    /// The path the report goes to.
    pub path: &'a str,
    file: File,
}

impl Report<'_> {
    /// Writes the whole report; exits 1 with one `error:` line if it
    /// cannot.
    pub fn write(mut self, doc: &str) {
        self.file
            .write_all(doc.as_bytes())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", self.path)));
    }
}

impl Args {
    /// The value given for `flag`, which must be declared as valued.
    pub fn value(&self, flag: &str) -> Option<&str> {
        assert!(self.cli.valued.contains(&flag), "{flag} is not declared");
        self.given(flag)
    }

    /// The value given for `flag`, declared or not.
    fn given(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the switch `flag`, which must be declared, was given.
    pub fn has(&self, flag: &str) -> bool {
        assert!(self.cli.switches.contains(&flag), "{flag} is not declared");
        self.switches.contains(&flag)
    }

    /// The value of `flag` parsed as a `T`; exits 1 if it does not parse.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Option<T> {
        let v = self.value(flag)?;
        Some(
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("{flag} cannot take {v:?}"))),
        )
    }

    /// The value of `flag` as an `M,N` pair; exits 1 if it is not one.
    pub fn pair(&self, flag: &str) -> Option<(usize, usize)> {
        let v = self.value(flag)?;
        let parts: Vec<Option<usize>> = v.split(',').map(|t| t.trim().parse().ok()).collect();
        match parts[..] {
            [Some(m), Some(n)] => Some((m, n)),
            _ => self.fail(&format!("{flag} wants M,N, got {v:?}")),
        }
    }

    /// Prints `msg` and the usage on stderr and exits 1: for a value
    /// that passed the flag check but names nothing.
    pub fn fail(&self, msg: &str) -> ! {
        self.cli.fail(msg)
    }

    /// The `--only M,N` field, (8, 2) by default; exits 1 unless it is
    /// a type II pentanomial.
    pub fn field(&self) -> (usize, usize) {
        let (m, n) = self.pair("--only").unwrap_or((8, 2));
        if let Err(e) = TypeIiPentanomial::new(m, n) {
            self.fail(&format!("--only {m},{n} names no type II pentanomial: {e}"));
        }
        (m, n)
    }

    /// The registry entry called `name`; exits 1 listing the registry,
    /// in the daemon's words, if there is none.
    fn lookup<T: Copy>(
        &self,
        kind: &str,
        name: &str,
        all: &[T],
        name_of: fn(T) -> &'static str,
    ) -> T {
        let names: Vec<&str> = all.iter().map(|&t| name_of(t)).collect();
        match names.iter().position(|&n| n == name) {
            Some(i) => all[i],
            None => self.fail(&format!(
                "unknown {kind} {name:?}; registered: {}",
                names.join(", ")
            )),
        }
    }

    /// The method `--method NAME` names, or every Table V method;
    /// exits 1 on an unknown name.
    pub fn methods(&self) -> Vec<Method> {
        match self.value("--method") {
            Some(name) => vec![self.lookup("method", name, &Method::ALL, Method::name)],
            None => Method::ALL.to_vec(),
        }
    }

    /// The fabrics `--all-targets`, `--targets A,B` or `--target NAME`
    /// name, in that precedence, or artix7; exits 1 on an unknown name.
    /// Each binary declares the forms it takes.
    pub fn targets(&self) -> Vec<Target> {
        let target = |name: &str| self.lookup("target", name, &Target::ALL, Target::name);
        if self.has("--all-targets") {
            Target::ALL.to_vec()
        } else if let Some(list) = self.given("--targets") {
            list.split(',').map(|t| target(t.trim())).collect()
        } else {
            vec![target(self.value("--target").unwrap_or("artix7"))]
        }
    }

    /// The report file `flag` names, created now; exits 1 with one
    /// `error:` line if it cannot be.
    pub fn report(&self, flag: &str) -> Option<Report<'_>> {
        let path = self.value(flag)?;
        let file = File::create(path).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        Some(Report { path, file })
    }
}

/// Prints `error: {msg}` on stderr and exits 1, without the usage: for
/// a command line that was fine but could not be carried out.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// `table5`: Table V on one or every fabric.
pub static TABLE5: Cli = Cli {
    usage: "\
Usage:
  table5                 # all nine fields on artix7 (minutes; use --release)
  table5 --quick         # only (8,2) and (64,23) (~seconds)
  table5 --only M,N      # a single field, e.g. --only 8,2
  table5 --target NAME   # another fabric (artix7|spartan3|virtex5|stratix_alm)
  table5 --all-targets   # every registry fabric, one grid per target
  table5 --threads N     # batch worker threads (0 = all CPUs)
  table5 --json PATH     # write the machine-readable report (JSON)
  table5 --csv PATH      # write the machine-readable report (CSV)
  table5 --daemon EP     # run jobs via rgf2m-served at EP
                         # (unix:PATH or HOST:PORT) instead of
                         # in-process pipelines
",
    valued: &[
        "--only",
        "--target",
        "--threads",
        "--json",
        "--csv",
        "--daemon",
    ],
    switches: &["--quick", "--all-targets"],
};

/// `audit`: the static certificate gate.
pub static AUDIT: Cli = Cli {
    usage: "\
Usage:
  audit                      # (8,2), all six methods, artix7
  audit --only M,N           # another Table V field
  audit --method NAME        # a single method (e.g. proposed)
  audit --target NAME        # another fabric (e.g. spartan3)
  audit --targets A,B        # an explicit fabric list
  audit --all-targets        # every registered fabric
  audit --json PATH          # also write the rgf2m-audit/1 document
  audit --inject FAULT       # break the gate on purpose
                             # (redundant-gate | truth-fault) —
                             # the run MUST then exit nonzero, which
                             # is how CI proves the gate has teeth
",
    valued: &[
        "--only",
        "--method",
        "--target",
        "--targets",
        "--json",
        "--inject",
    ],
    switches: &["--all-targets"],
};

/// `sta`: static timing analysis.
pub static STA: Cli = Cli {
    usage: "\
Usage:
  sta                        # (8,2), all six methods, artix7
  sta --only M,N             # another Table V field
  sta --method NAME          # a single method (e.g. proposed)
  sta --target NAME          # another fabric (e.g. spartan3)
  sta --all-targets          # every registered fabric
  sta --paths K              # trace the K worst paths (default 2)
  sta --target-ns X          # required time at the outputs in ns
                             # (default: the design's own critical
                             # delay, so slack is a consistency
                             # check rather than a constraint)
",
    valued: &["--only", "--method", "--target", "--paths", "--target-ns"],
    switches: &["--all-targets"],
};

/// `export_blif`: one multiplier netlist as BLIF on stdout.
pub static EXPORT_BLIF: Cli = Cli {
    usage: "\
Usage:
  export_blif                 # proposed at (8,2) as BLIF on stdout
  export_blif --only M,N      # another type II pentanomial field
  export_blif --method NAME   # a Table V method (e.g. rashidi), or the
                              # extra-paper school | karatsuba
",
    valued: &["--only", "--method"],
    switches: &[],
};

/// `reveng`: field recovery from anonymized netlists.
pub static REVENG: Cli = Cli {
    usage: "\
Usage:
  reveng                 # all nine Table V fields, proposed method
  reveng --only M,N      # a single field, e.g. --only 8,2
  reveng --all-methods   # all six methods per field (slower)
",
    valued: &["--only"],
    switches: &["--all-methods"],
};

/// The binaries that take no flags: they print one of the paper's
/// tables or an ablation study.
pub static NO_FLAGS: Cli = Cli {
    usage: "\
Usage:
  table1 | table2 | table3 | table4     # one of the paper's Tables I-IV
  paper                                 # every table, Table V as --quick
  ablation_freedom | ablation_sharing   # an ablation study
These binaries take no flags.
",
    valued: &[],
    switches: &[],
};

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn declared_flags_parse_and_read_back() {
        let a = TABLE5
            .try_parse(&args("--only 8,2 --all-targets --json out.json"))
            .unwrap();
        assert_eq!(a.pair("--only"), Some((8, 2)));
        assert_eq!(a.value("--json"), Some("out.json"));
        assert_eq!(a.value("--csv"), None);
        assert!(a.has("--all-targets") && !a.has("--quick"));
        assert_eq!(a.parsed::<usize>("--threads"), None);
        let a = STA.try_parse(&args("--target-ns -2.5")).unwrap();
        assert_eq!(a.parsed::<f64>("--target-ns"), Some(-2.5));
    }

    #[test]
    fn everything_else_is_refused() {
        let bad = |line: &str| match TABLE5.try_parse(&args(line)) {
            Err(ArgError::Bad(msg)) => msg,
            other => panic!("{line:?} gave {other:?}"),
        };
        assert_eq!(bad("--onyl 8,2"), "unknown flag --onyl");
        assert_eq!(bad("--json"), "--json needs a value");
        assert_eq!(bad("--json --csv out.csv"), "--json needs a value");
        assert_eq!(bad("--only 8,2 extra"), "unexpected argument \"extra\"");
        assert_eq!(bad("--quick --quick"), "--quick given twice");
        assert_eq!(bad("--only 8,2 --only 9,3"), "--only given twice");
        assert_eq!(bad("-h"), "unknown flag -h");
        // `--help` wins wherever it appears, even after an error.
        for line in ["--help", "--onyl 8,2 --help", "--json --help"] {
            assert_eq!(TABLE5.try_parse(&args(line)).unwrap_err(), ArgError::Help);
        }
    }

    /// Every bench command line in the CI workflow passes its binary's
    /// contract, except those CI runs expecting a failure
    /// (`if …; then exit 1; fi`), which the flag check must refuse.
    /// Where CI expects a value to be refused after the flag check (an
    /// injected fault, a field that is no type II pentanomial, a NaN
    /// constraint), the flags must parse, so the run fails for the
    /// reason the step names and not for a misspelling.
    #[test]
    fn ci_command_lines_keep_parsing() {
        let ci = include_str!("../../../.github/workflows/ci.yml");
        let bins: [(&str, &'static Cli); 7] = [
            ("table5", &TABLE5),
            ("audit", &AUDIT),
            ("sta", &STA),
            ("reveng", &REVENG),
            ("table1", &NO_FLAGS),
            ("paper", &NO_FLAGS),
            ("export_blif", &EXPORT_BLIF),
        ];
        let refused_after_parsing = ["--inject", "--only 8,4", "--target-ns nan"];
        let mut checked = 0;
        for line in ci.lines().map(str::trim) {
            let line = line.trim_start_matches("run: ");
            let expect_failure = line.starts_with("if ");
            let line = line.trim_start_matches("if ");
            let line = line.split(['>', ';']).next().unwrap().trim();
            for (name, cli) in bins {
                let rest = line
                    .strip_prefix(&format!(
                        "cargo run --release -p rgf2m_bench --bin {name} --"
                    ))
                    .or_else(|| line.strip_prefix(&format!("\"$BIN\"/{name}")));
                let Some(rest) = rest.filter(|r| r.is_empty() || r.starts_with(' ')) else {
                    continue;
                };
                let parsed = cli.try_parse(&args(rest));
                if expect_failure && !refused_after_parsing.iter().any(|v| rest.contains(v)) {
                    assert!(parsed.is_err(), "CI expects {line:?} to be refused");
                } else {
                    assert!(parsed.is_ok(), "CI runs {line:?}: {parsed:?}");
                }
                checked += 1;
            }
        }
        assert!(
            checked >= 15,
            "found only {checked} bench command lines in CI"
        );
    }
}
