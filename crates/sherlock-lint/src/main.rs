//! `sherlock-lint` CLI.
//!
//! ```text
//! cargo run -p sherlock-lint --                 # lint the workspace
//! cargo run -p sherlock-lint -- --rule nan-unsafe
//! cargo run -p sherlock-lint -- --github       # CI annotations
//! cargo run -p sherlock-lint -- --sarif        # SARIF 2.1.0 (code scanning upload)
//! cargo run -p sherlock-lint -- --certify      # write tools/lint-certificate.json
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.
//! Under `--certify`, `0` means certified, `1` means a clause failed.

use std::path::PathBuf;
use std::process::ExitCode;

use sherlock_lint::rules::RuleKind;
use sherlock_lint::workspace::{find_workspace_root, scan_workspace_with_taint, ScanConfig};
use sherlock_lint::Finding;

const USAGE: &str = "\
sherlock-lint — domain-invariant static analyzer for the dbsherlock workspace

USAGE:
    sherlock-lint [OPTIONS]

OPTIONS:
    --root <DIR>        workspace root (default: auto-detected from cwd)
    --rule <NAME>       run only this rule (repeatable); default: all rules
    --github            GitHub Actions `::error` annotations for findings
    --sarif             SARIF 2.1.0 output for findings (code scanning)
    --certify           run the full rule set, write <root>/tools/lint-certificate.json,
                        print it, and exit 0 iff every certified entry point is clean
    --list-rules        print the rule names and exit
    -h, --help          this help
";

struct Args {
    root: Option<PathBuf>,
    rules: Vec<RuleKind>,
    github: bool,
    sarif: bool,
    certify: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args =
        Args { root: None, rules: Vec::new(), github: false, sarif: false, certify: false };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(iter.next().ok_or("--root needs a value")?));
            }
            "--github" => args.github = true,
            "--sarif" => args.sarif = true,
            "--certify" => args.certify = true,
            "--rule" => {
                let name = iter.next().ok_or("--rule needs a value")?;
                let rule = RuleKind::from_name(&name)
                    .ok_or_else(|| format!("unknown rule {name:?}; try --list-rules"))?;
                args.rules.push(rule);
            }
            "--list-rules" => {
                for rule in RuleKind::ALL {
                    println!("{rule}");
                }
                return Ok(None);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Args) -> Result<bool, String> {
    let root = match args.root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory; pass --root")?
        }
    };
    if args.certify {
        // Certification always runs the full rule set: a certificate
        // derived from a partial scan would assert clauses never checked.
        let config = ScanConfig::all_rules(root.clone());
        let (findings, taint) = scan_workspace_with_taint(&config)
            .map_err(|e| format!("scanning {}: {e}", root.display()))?;
        let (index, calls) = taint.ok_or("taint index missing from full-rule scan")?;
        let cert = sherlock_lint::certify(&index, &calls, &findings);
        let json = cert.render_json();
        let cert_path = root.join("tools").join("lint-certificate.json");
        std::fs::write(&cert_path, &json)
            .map_err(|e| format!("writing {}: {e}", cert_path.display()))?;
        print!("{json}");
        eprintln!(
            "sherlock-lint: certificate {} — {}",
            if cert.certified { "CLEAN" } else { "FAILED" },
            cert_path.display()
        );
        return Ok(cert.certified);
    }

    let rules = if args.rules.is_empty() { RuleKind::ALL.to_vec() } else { args.rules.clone() };
    let config = ScanConfig { root: root.clone(), rules };
    let (findings, _) = scan_workspace_with_taint(&config)
        .map_err(|e| format!("scanning {}: {e}", root.display()))?;

    if args.sarif {
        print!("{}", render_sarif(&findings));
    } else {
        for finding in &findings {
            if args.github {
                println!("{}", finding.render_github());
            } else {
                println!("{}", finding.render());
            }
        }
        eprintln!("sherlock-lint: {} finding(s)", findings.len());
        if !findings.is_empty() {
            eprintln!(
                "sherlock-lint: fix each finding, or acknowledge it in place with a \
                 `// sherlock-lint: allow(<rule>): <why>` escape"
            );
        }
    }
    Ok(findings.is_empty())
}

/// SARIF 2.1.0, one run: rule metadata from [`RuleKind`], one `result` with
/// a physical location per finding. Consumed by
/// `github/codeql-action/upload-sarif`.
fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"sherlock-lint\",\n          \
         \"informationUri\": \"https://github.com/dbsherlock\",\n          \"rules\": [\n",
    );
    for (i, rule) in RuleKind::ALL.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{}\n",
            json_str(rule.name()),
            json_str(rule.summary()),
            if i + 1 < RuleKind::ALL.len() { "," } else { "" },
        ));
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let rule_index = RuleKind::ALL.iter().position(|r| *r == f.rule).unwrap_or(0);
        out.push_str(&format!(
            "        {{\"ruleId\": {}, \"ruleIndex\": {rule_index}, \"level\": \"error\", \
             \"message\": {{\"text\": {}}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": \
             {}}}}}}}]{}}}{}\n",
            json_str(f.rule.name()),
            json_str(&f.message),
            json_str(&f.path),
            f.line.max(1),
            render_code_flow(f),
            if i + 1 < findings.len() { "," } else { "" },
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// A SARIF `codeFlow` for a finding that carries a taint/reachability
/// trace: one threadFlow whose locations walk source → sanitizer-miss →
/// sink (or entry → call → panic). Empty string when there is no trace.
fn render_code_flow(f: &Finding) -> String {
    if f.trace.is_empty() {
        return String::new();
    }
    let mut steps = String::new();
    for (i, step) in f.trace.iter().enumerate() {
        steps.push_str(&format!(
            "{{\"location\": {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}, \"message\": {{\"text\": {}}}}}}}{}",
            json_str(&step.path),
            step.line.max(1),
            json_str(&format!("{}: {}", step.kind.label(), step.note)),
            if i + 1 < f.trace.len() { ", " } else { "" },
        ));
    }
    format!(", \"codeFlows\": [{{\"threadFlows\": [{{\"locations\": [{steps}]}}]}}]")
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
