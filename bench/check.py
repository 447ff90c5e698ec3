"""Output check for one CLI invocation: its CSV against a stored reference.

- The '#' comment lines and the column header match exactly (the Monte
  Carlo comment's master_seed is the run's seed).
- Text and integer columns match exactly; float columns match within
  FLOAT_RTOL, so a last-digit change from reordered sums passes while a
  wrong bound does not.
- RMSE columns depend on the seed: they are compared with the reference at
  the reference seed only. At every seed they must be finite and satisfy
  criterion 9's rule rmse^2 >= crb * (1 - 2/sqrt(trials)) pooled over the
  CSV's identifiable rows, as mean(rmse^2 / crb) >= 1 - 2/sqrt(trials).
  The rule is not applied row by row: the matched-field estimator is nearly
  efficient (rmse^2/crb is 0.96-1.12 at 200 trials), so at 50 trials some
  row fell below the floor at 9 of 18 seeds (100-117) and at the reference
  seed (fig9, M=257, range: 0.711 < 0.717). The pooled mean stayed at 0.85
  or above on all of them, against a floor of 0.717.

Byte determinism across repeated invocations is checked by the caller,
which holds all outputs of a run.
"""

import csv
import math
import re

FLOAT_RTOL = 1e-6

TEXT_COLUMNS = {"method", "mode", "topology", "identifiable", "warnings", "estimator"}
INT_COLUMNS = {"M", "N", "trials", "master_seed"}
FLOAT_COLUMNS = {
    "d_tx_m", "d_rx_m", "R_m", "theta_rad", "r_m", "snr_db", "L",
    "crb_theta_rad2", "crb_r_m2",
}
RMSE_COLUMNS = {"rmse_theta_rad": "crb_theta_rad2", "rmse_range_m": "crb_r_m2"}

_SEED_COMMENT = re.compile(r"master_seed=\d+")


def split_csv(text: str):
    """(comment lines, header, rows as cell lists) of one CLI CSV."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        return comments, [], []
    table = list(csv.reader(body))
    header = table[0]
    return comments, header, table[1:]


def _floats_match(got: str, want: str) -> bool:
    a, b = float(got), float(want)
    if not (math.isfinite(a) and math.isfinite(b)):
        return got == want
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))


def criterion9_ratios(rows):
    """(row index, column, rmse^2 / crb, slack) for every identifiable Monte
    Carlo row, where slack = 1 - 2/sqrt(trials) is the rule's floor."""
    out = []
    for i, row in enumerate(rows):
        if "trials" not in row or row.get("identifiable") != "true":
            continue
        slack = 1.0 - 2.0 / math.sqrt(int(row["trials"]))
        for col, crb_col in RMSE_COLUMNS.items():
            out.append((i, col, float(row[col]) ** 2 / float(row[crb_col]), slack))
    return out


def check_csv(text: str, ref_text: str, seed: int, ref_seed: int) -> list:
    """Problems found in `text` (empty when it passes)."""
    comments, header, table = split_csv(text)
    ref_comments, ref_header, ref_table = split_csv(ref_text)
    problems = []
    expected = [_SEED_COMMENT.sub(f"master_seed={seed}", ln) for ln in ref_comments]
    if comments != expected:
        problems.append("comment lines differ from the reference")
    if header != ref_header:
        return problems + [f"header {header} differs from the reference {ref_header}"]
    if len(table) != len(ref_table):
        return problems + [f"{len(table)} rows, reference has {len(ref_table)}"]
    if any(len(cells) != len(header) for cells in table):
        return problems + ["a row has a different number of cells than the header"]
    rows = [dict(zip(header, cells)) for cells in table]
    ref_rows = [dict(zip(header, cells)) for cells in ref_table]

    at_ref_seed = seed == ref_seed
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in header:
            got, want = row[col], ref[col]
            try:
                if col == "master_seed":
                    ok = got == str(seed)
                elif col in TEXT_COLUMNS or col in INT_COLUMNS:
                    ok = got == want
                elif col in FLOAT_COLUMNS:
                    ok = _floats_match(got, want)
                elif col in RMSE_COLUMNS:
                    ok = math.isfinite(float(got)) and (
                        not at_ref_seed or _floats_match(got, want))
                else:
                    ok = False
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"row {i} column {col}: got {got!r}, reference {want!r}")

    try:
        ratios = criterion9_ratios(rows)
    except (ValueError, ZeroDivisionError):
        return problems + ["criterion 9: unreadable rmse, crb or trials value"]
    if ratios:
        mean = sum(r for _, _, r, _ in ratios) / len(ratios)
        slack = max(s for _, _, _, s in ratios)
        if not mean >= slack:
            problems.append(f"criterion 9: mean rmse^2/crb = {mean:.3f} < {slack:.3f}")
    return problems
