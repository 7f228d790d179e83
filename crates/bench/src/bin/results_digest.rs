//! Collects every figure CSV in `bench_results/` into one Markdown
//! digest (`bench_results/DIGEST.md`) — the quick artefact to eyeball
//! after a full regeneration run. `timing.csv` is left out: its time
//! columns differ on every run, and the digest regenerates to the byte.

use ebi_bench::out_dir;
use std::fmt::Write as _;

fn main() {
    let dir = out_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("bench_results/ readable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".csv") && n != "timing.csv")
        .collect();
    names.sort();

    let mut digest = String::from("# bench_results digest\n\n");
    let _ = writeln!(
        digest,
        "{} CSV artefacts; regenerate with the bins listed in README.md.\n",
        names.len()
    );
    for name in &names {
        let path = dir.join(name);
        let content = std::fs::read_to_string(&path).expect("readable CSV");
        let mut lines = content.lines();
        let header = lines.next().unwrap_or_default();
        let rows: Vec<&str> = lines.collect();
        let _ = writeln!(digest, "## {name}\n");
        let _ = writeln!(digest, "{} data rows · columns: `{}`\n", rows.len(), header);
        let _ = writeln!(digest, "```csv");
        let _ = writeln!(digest, "{header}");
        for row in rows.iter().take(8) {
            let _ = writeln!(digest, "{row}");
        }
        if rows.len() > 8 {
            let _ = writeln!(digest, "… ({} more rows)", rows.len() - 8);
        }
        let _ = writeln!(digest, "```\n");
    }
    let out = dir.join("DIGEST.md");
    std::fs::write(&out, &digest).expect("write digest");
    println!("[written] {} ({} artefacts)", out.display(), names.len());
}
