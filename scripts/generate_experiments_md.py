"""Generate EXPERIMENTS.md: paper-vs-measured for every artifact.

Runs the full experiment registry in one pass (every artifact over one
shared scheduler) and writes the markdown record.
"""

from __future__ import annotations

import io

from repro.bench import available_experiments, paper_data, run_experiments

PREAMBLE = """\
# EXPERIMENTS — paper vs measured

Generated by `python scripts/generate_experiments_md.py`; every value
below is re-measured from the simulation at generation time (seed 0).

**Reading guide.** Table 3 is the only artifact the paper publishes
as exact numbers; cells are compared directly (tolerance x2.2 per
cell, all orderings exact). The figures publish curves without data
tables, so for them we verify the *claims* the paper's text and plots
make — who wins, by roughly what factor, where crossovers fall — and
report our measured series next to the paper's printed y-axis range
for scale context. Absolute APL magnitudes additionally depend on
unpublished workload sizes (image dimensions, key counts, sample
counts); ours are fixed uniformly across platforms (JPEG 768x768,
FFT 256x256, Monte Carlo 1.5M samples, PSRS 250k keys) so the
platform-to-platform ratios are meaningful.

**Known deviations.**

* Table 3, p4/Ethernet at 1-4 KB: the paper's cells are faster than
  the 10 Mb/s wire time of the payload itself permits under the
  round-trip reading; our model cannot go below wire physics, so
  those cells sit near the tolerance edge (all other 60+ cells agree
  well inside it).
* Table 3, Express mid-sizes: the paper's Express column is concave
  (marginal per-KB cost falls with size), suggesting an adaptive
  fragment protocol; our fixed 1 KB stop-and-wait fragment gives a
  linear curve that brackets the paper's endpoints.
* Figures 5/8, Monte Carlo and sorting: the paper notes PVM/Express
  "were best" for these applications; in our model all three tools
  are within a few percent there (these apps barely communicate) but
  p4 keeps a hair's lead. The paper publishes no numbers for the gap;
  we treat it as below the model's resolution.

---
"""


def main() -> None:
    out = io.StringIO()
    out.write(PREAMBLE)
    exp_ids = available_experiments()
    for exp_id, result in zip(exp_ids, run_experiments(exp_ids, echo=False)):
        out.write("\n## %s — %s\n\n" % (result.exp_id, result.title))
        passed = sum(1 for check in result.checks if check.passed)
        out.write("Shape checks: **%d/%d passed**\n\n" % (passed, len(result.checks)))
        out.write("```\n%s\n```\n\n" % result.text)
        out.write("Checks:\n\n")
        for check in result.checks:
            status = "PASS" if check.passed else "FAIL"
            out.write("- `%s` %s — %s\n" % (status, check.name, check.detail))
        axis_note = _axis_note(exp_id)
        if axis_note:
            out.write("\n%s\n" % axis_note)
    with open("EXPERIMENTS.md", "w") as handle:
        handle.write(out.getvalue())
    print("wrote EXPERIMENTS.md")


def _axis_note(exp_id: str) -> str:
    if exp_id.startswith("fig2") or exp_id.startswith("fig3"):
        key = exp_id.replace("fig2-", "fig2-broadcast-").replace("fig3-", "fig3-ring-")
        claim = paper_data.FIGURE_CLAIMS.get(key)
        if claim:
            low, high = claim["paper_axis_ms"]
            return "Paper's printed y-axis: %g-%g ms." % (low, high)
    if exp_id == "fig4":
        low, high = paper_data.FIGURE_CLAIMS["fig4-globalsum"]["paper_axis_ms"]
        return "Paper's printed y-axis: %g-%g ms." % (low, high)
    for platform, axes in paper_data.APL_PLATFORM_AXES.items():
        if exp_id == axes["figure"].replace("Figure ", "fig"):
            lines = ["Paper's printed y-axes (seconds):"]
            for app, (low, high) in axes["paper_axis_seconds"].items():
                lines.append("%s %g-%g;" % (app, low, high))
            return " ".join(lines)
    return ""


if __name__ == "__main__":
    main()
