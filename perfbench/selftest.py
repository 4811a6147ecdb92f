"""Shows that the benchmark's output checks can fail.

    python3 perfbench/selftest.py

Runs one round of coarsen-exponential and of the cube-root map scenario of
profile-analysis, confirms that the checks pass on the real outputs, then
doctors a copy of the outputs four ways and confirms that the matching check
reports each: a trace cut off before t_final, a mass drift above 1e-4,
Lambda above Lambda(0) + t sup beta0, and a map history whose sup beta
rises.  Exits 0 when the real outputs pass and every doctored one is caught.
"""
from __future__ import annotations

import random
import shutil
import sys

import numpy as np

import run
from workloads import WORKLOADS, read_csv


def write_csv(path, table: dict) -> None:
    np.savetxt(path, np.column_stack(list(table.values())), delimiter=",", fmt="%.17g",
               header=",".join(table), comments="")


def doctor_trace(trace: dict, case: str) -> dict:
    t = dict(trace)
    if case == "t_final":
        return {k: v[: len(v) // 2] for k, v in t.items()}
    if case == "mass_drift":
        t["mass"] = t["mass"].copy()
        t["mass"][-1] *= 1.0 + 2e-4
    if case == "upper_bound":
        t["Lambda"] = t["Lambda"].copy()
        # sup beta0 = 1 for w = e^(-x)
        t["Lambda"][-1] = (t["Lambda"][0] + t["t"][-1]) * (1.0 + 1e-6)
    return t


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from lswkit import cli

    ok = True
    base = run.OUT / "selftest"
    cases = []
    coarsen = WORKLOADS["coarsen-exponential"]
    analysis = WORKLOADS["profile-analysis"]
    map_name = "map-cube-exponential"
    for wl, keep in ((coarsen, None), (analysis, map_name)):
        secs = wl.sections(random.Random(0))
        if keep:
            secs = {keep: secs[keep]}
        root = base / wl.name
        _, failed = run.run_round(cli, run.write_configs(secs, base / "configs"), root)
        found = wl.check(root, secs)
        print(f"{wl.name}: real outputs: {found or 'all checks pass'}")
        ok &= not failed and not found
        cases.append((wl, secs, root))

    (wl, secs, root), (mwl, msecs, mroot) = cases
    for case in ("t_final", "mass_drift", "upper_bound", "sup_beta"):
        if case == "sup_beta":
            wl, secs, root, name, csv = mwl, msecs, mroot, map_name, "history.csv"
            table = read_csv(root / name / csv)
            table["sup_beta"] = table["sup_beta"].copy()
            table["sup_beta"][50] = table["sup_beta"][49] + 1e-6
        else:
            name, csv = wl.name, "trace.csv"
            table = doctor_trace(read_csv(root / name / csv), case)
        copy = base / "doctored" / case
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(root, copy)
        write_csv(copy / name / csv, table)
        found = wl.check(copy, secs)
        caught = any(f.startswith(case) for f in found)
        ok &= caught
        print(f"doctored {case}: {'caught' if caught else 'MISSED'}: {found}")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
