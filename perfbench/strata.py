"""List the scene-pool ids whose ICP ends in a 2-cycle (all max_iterations
run without meeting rel_tol), for workloads.ICP_2CYCLE_SCENES.

    python3 perfbench/strata.py stitch_dense

Runs `panostitch stitch` once on every pool scene; takes a few minutes.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402


def main(name: str) -> None:
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        wl = workloads.StitchWorkload(name, seed=0, work=Path(tmp))
        wl.setup(spans.NullTracer(), ids=list(range(workloads.SCENE_POOL)))
        cycle = []
        for i, scene in enumerate(wl.scenes):
            _, fails = wl.job(i)
            if fails:
                raise SystemExit(f"{scene.name}: {fails}")
            icp = json.loads((scene.dir / "out" / "diagnostics.json").read_text())
            if not icp["pairs"][0]["icp"]["converged"]:
                cycle.append(i)
    print(json.dumps({name: cycle}))


if __name__ == "__main__":
    main(sys.argv[1])
