//! Golden test: every virtual output of the repository, byte for byte.
//!
//! Each case regenerates one output and compares it with its committed file
//! under `results/`: the ten `snp-bench` reports (`<report>.txt`), and the
//! stdout (`<case>.txt`) and exit code of seeded `snpgpu` command lines,
//! with the `--json` report (`<case>.json`) of those that write one and
//! the loadgen timeline (`<case>.trace.json`) and flight-recorder dump
//! (`<case>.flight.json`) of those that write them. Every
//! number in them is virtual (modeled) time or a seeded count, so any
//! difference is a moved value that the change must explain. A failure names each one: the differing
//! lines of a report, or the JSON path of a changed value with its old and
//! new value. `UPDATE_GOLDEN=1` rewrites the files instead of comparing.

use std::collections::BTreeSet;
use std::path::PathBuf;

use snp_trace::json::{self, Value};

/// One test per paper report, comparing `snp_bench::<report>()` with
/// `results/<report>.txt`.
macro_rules! report_cases {
    ($($report:ident),* $(,)?) => {$(
        #[test]
        fn $report() {
            check(concat!(stringify!($report), ".txt"), &snp_bench::$report());
        }
    )*};
}

report_cases!(
    table1_devices,
    table2_configs,
    fig5_ld_kernel,
    fig6_ld_end2end,
    fig7_scalability,
    fig8_fastid,
    fig9_andnot,
    microbench_table,
    ablation_report,
    extensions_report,
);

/// One test per seeded `snpgpu` command line that writes a `--json`
/// report: it must exit with the given code, its stdout must equal
/// `results/<case>.txt` and its report `results/<case>.json`.
macro_rules! cli_cases {
    ($($case:ident: $line:literal => $exit:ident),* $(,)?) => {$(
        #[test]
        fn $case() {
            check_cli(stringify!($case), $line, snp_cli::ExitCode::$exit);
        }
    )*};
}

/// One test per seeded `snpgpu` command line without a `--json` report:
/// it must exit with the given code and its stdout must equal
/// `results/<case>.txt`.
macro_rules! text_cases {
    ($($case:ident: $line:literal => $exit:ident),* $(,)?) => {$(
        #[test]
        fn $case() {
            let report = run_cli($line, |name| panic!("text case with a <{name}> file"));
            assert_eq!(report.exit, snp_cli::ExitCode::$exit, "snpgpu {}:\n{}", $line, report.text);
            check(concat!(stringify!($case), ".txt"), &report.text);
        }
    )*};
}

cli_cases!(
    lint_all: "lint all --device all" => Ok,
    lint_all_deep: "lint all --device all --deep" => Ok,
    profile_all: "profile all --device all" => Ok,
    chaos_all: "chaos all --device all --profile all --seed 42" => Ok,
    loadgen_chaos_titan_v: "loadgen all --device titan-v --mode chaos --seed 42" => Ok,
    loadgen_chaos_tc100: "loadgen all --device tc100 --mode chaos --seed 42" => Ok,
    whatif_titan_v: "whatif all --device titan-v --queries 24 --rate 8000 --seed 42" => Ok,
    loadgen_anatomy_titan_v: "loadgen all --device titan-v --queries 64 --seed 42 --anatomy" => Ok,
    loadgen_sweep_admission_titan_v: "loadgen all --device titan-v --mode sweep --admission --seed 42" => Ok,
    // The three post-mortem triggers, each with a window small enough to
    // drop spans: the device lost on query 3, a shed storm through query
    // 23, and the SLO breach judged at the end of the run.
    loadgen_loss_flight_titan_v: "loadgen all --device titan-v --queries 12 --seed 42 --fault-profile loss@2 --fault-at 3 --flight-capacity 16 --trace <trace> --flight <flight>" => Ok,
    loadgen_storm_flight_titan_v: "loadgen all --device titan-v --queries 96 --seed 7 --admission --arrival bursty --rate 64000 --shed-budget 1 --flight-capacity 16 --flight <flight>" => Ok,
    loadgen_slo_flight_titan_v: "loadgen all --device titan-v --queries 24 --seed 42 --slo-p99-ms 0.05 --flight-capacity 16 --flight <flight>" => SloBreach,
);

text_cases!(
    devices: "devices" => Ok,
    config_vega_64_search: "config --device vega-64 --algorithm search" => Ok,
    microbench_titan_v: "microbench --device titan-v" => Ok,
    ld_gtx_980: "ld --device gtx-980 --snps 48 --samples 512 --seed 7" => Ok,
    ld_gtx_980_loss: "ld --device gtx-980 --fault-profile loss@3" => Degraded,
    search_vega_64: "search --device vega-64 --profiles 400 --snps 256 --queries 4 --noise 0.0" => Ok,
    mixture_titan_v: "mixture --device titan-v --profiles 300 --snps 384 --contributors 2" => Ok,
);

/// Runs `snpgpu <line>` in this process, with each `<name>` token replaced
/// by the path `file(name)`.
fn run_cli(line: &str, file: impl Fn(&str) -> String) -> snp_cli::CmdReport {
    let tokens = line
        .split_whitespace()
        .map(|token| placeholder(token).map_or_else(|| token.to_string(), &file));
    let args = snp_cli::Args::parse(tokens).unwrap();
    snp_cli::run_full(&args).unwrap_or_else(|e| panic!("snpgpu {line} failed: {}", e.message))
}

/// The `name` of a `<name>` token.
fn placeholder(token: &str) -> Option<&str> {
    token.strip_prefix('<')?.strip_suffix('>')
}

/// Runs `snpgpu <line> --json <json>` with each `<name>` token a temp file,
/// asserts its exit code, and checks its stdout, with each temp path shown
/// as its `<name>`, and every file it wrote: the report as `<case>.json`,
/// any other `<name>` as `<case>.<name>.json`.
fn check_cli(case: &str, line: &str, exit: snp_cli::ExitCode) {
    let dir = std::env::temp_dir().join(format!("snp-golden-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(format!("{name}.json")).display().to_string();
    let line = format!("{line} --json <json>");
    let report = run_cli(&line, file);
    assert_eq!(report.exit, exit, "snpgpu {line}:\n{}", report.text);
    let mut text = report.text;
    let mut written = Vec::new();
    for name in line.split_whitespace().filter_map(placeholder) {
        text = text.replace(&file(name), &format!("<{name}>"));
        let pinned = match name {
            "json" => format!("{case}.json"),
            _ => format!("{case}.{name}.json"),
        };
        written.push((pinned, std::fs::read_to_string(file(name)).unwrap()));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    check(&format!("{case}.txt"), &text);
    for (pinned, got) in written {
        check(&pinned, &got);
    }
}

/// Compares `got` with `results/<file>`, or rewrites that file when
/// `UPDATE_GOLDEN` is set.
fn check(file: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (UPDATE_GOLDEN=1 writes it)", path.display()));
    if got == want {
        return;
    }
    let mut moved = if file.ends_with(".json") {
        json_moves(&want, got)
    } else {
        line_moves(&want, got)
    };
    if moved.is_empty() {
        let at = want
            .bytes()
            .zip(got.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        moved.push(format!(
            "no value moved, but the bytes differ from offset {at}"
        ));
    }
    panic!(
        "results/{file} moved; name each moved value in CHANGES.md, then \
         regenerate with UPDATE_GOLDEN=1:\n{}",
        moved.join("\n")
    );
}

/// A minimal line diff of two reports: `-N: line` for each line of `old`
/// that is gone and `+N: line` for each line of `new` that is not in `old`
/// (N counts from 1 in its own file).
fn line_moves(old: &str, new: &str) -> Vec<String> {
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    // lcs[i][j]: length of the longest common subsequence of a[i..] and b[j..].
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            i += 1;
            j += 1;
        } else if i < a.len() && (j == b.len() || lcs[i + 1][j] >= lcs[i][j + 1]) {
            out.push(format!("-{}: {}", i + 1, a[i]));
            i += 1;
        } else {
            out.push(format!("+{}: {}", j + 1, b[j]));
            j += 1;
        }
    }
    out
}

/// Every value that differs between two JSON documents, as
/// `path: old -> new`.
fn json_moves(old: &str, new: &str) -> Vec<String> {
    match (json::parse(old), json::parse(new)) {
        (Ok(old), Ok(new)) => {
            let mut out = Vec::new();
            walk("$".to_string(), Some(&old), Some(&new), &mut out);
            out
        }
        (old, new) => vec![format!(
            "not comparable as JSON: old {:?}, new {:?}",
            old.err(),
            new.err()
        )],
    }
}

fn walk(path: String, old: Option<&Value>, new: Option<&Value>, out: &mut Vec<String>) {
    match (old, new) {
        (Some(Value::Obj(a)), Some(Value::Obj(b))) => {
            for key in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
                walk(format!("{path}.{key}"), a.get(key), b.get(key), out);
            }
        }
        (Some(Value::Arr(a)), Some(Value::Arr(b))) => {
            for i in 0..a.len().max(b.len()) {
                let segment = element_label(i, b.get(i).or(a.get(i)));
                walk(format!("{path}[{segment}]"), a.get(i), b.get(i), out);
            }
        }
        _ if old == new => {}
        _ => out.push(format!("{path}: {} -> {}", show(old), show(new))),
    }
}

/// An array element's path segment: its index, plus the fields that name
/// an object element (`cells[4 device=Titan V algorithm=fastid]`).
fn element_label(index: usize, item: Option<&Value>) -> String {
    let mut label = index.to_string();
    if let Some(Value::Obj(fields)) = item {
        for key in [
            "device",
            "algorithm",
            "profile",
            "label",
            "band",
            "name",
            "pipeline",
            "class",
        ] {
            if let Some(Value::Str(v)) = fields.get(key) {
                label.push_str(&format!(" {key}={v}"));
            }
        }
    }
    label
}

fn show(v: Option<&Value>) -> String {
    match v {
        None => "(absent)".to_string(),
        Some(Value::Null) => "null".to_string(),
        Some(Value::Bool(b)) => b.to_string(),
        Some(Value::Num(n)) => n.to_string(),
        Some(Value::Str(s)) => format!("{s:?}"),
        Some(Value::Arr(items)) => format!("[{} items]", items.len()),
        Some(Value::Obj(fields)) => format!("{{{} fields}}", fields.len()),
    }
}

#[test]
fn mismatch_reporter_names_each_moved_value() {
    let old = r#"{"cells":[{"device":"Titan V","kernel_ns":100,"ok":true}],"seed":42}"#;
    let new = r#"{"cells":[{"device":"Titan V","kernel_ns":101,"ok":true}],"seed":42}"#;
    assert_eq!(
        json_moves(old, new),
        ["$.cells[0 device=Titan V].kernel_ns: 100 -> 101"]
    );
    let added = r#"{"cells":[],"seed":42,"extra":"x"}"#;
    assert_eq!(
        json_moves(r#"{"cells":[],"seed":42}"#, added),
        [r#"$.extra: (absent) -> "x""#]
    );

    let old = "| device | L_fn |\n| GTX 980 | 6 |\n| Titan V | 4 |\n";
    let new = "| device | L_fn |\n| GTX 980 | 6 |\n| Titan V | 5 |\n";
    assert_eq!(
        line_moves(old, new),
        ["-3: | Titan V | 4 |", "+3: | Titan V | 5 |"]
    );
    let inserted = "| device | L_fn |\n| GTX 980 | 6 |\n| Vega 64 | 4 |\n| Titan V | 4 |\n";
    assert_eq!(line_moves(old, inserted), ["+3: | Vega 64 | 4 |"]);
}
