"""Write the pinned reference values the output gate compares against.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the program's outputs, and
say so in the change: the files it writes are the benchmark's definition
of a correct result.  The committed files were taken from the solver as
it stood when the benchmark was added.
"""

import json

import workloads


def main():
    workloads.use_checkout_sources()
    for name in workloads.NAMES:
        problem, base_mesh = workloads.setup(name)
        unit = workloads.run_unit(name, problem, base_mesh, seed=0)
        if unit["error"] is not None:
            raise SystemExit(f"{name}: {unit['error']}")
        if name in workloads.DPG:
            ref = {"config": workloads.DPG[name][0],
                   "levels": [{k: level[k] for k in
                               ("ntriangles", "ndofs", "eta", "err_u",
                                "err_M")} for level in unit["levels"]]}
        else:
            ref = {"seed": 0,
                   "ntriangles": [r["ntriangles"] for r in unit["levels"]]}
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as handle:
            json.dump(ref, handle, indent=1)
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
