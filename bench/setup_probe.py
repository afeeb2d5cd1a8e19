"""Time what a command does once before its first image, in a fresh interpreter,
then how fast the host runs a fixed workload.

    python bench/setup_probe.py targets --annotations CORPUS.json --out UNUSED [--config C.json]
    python bench/setup_probe.py coverage --annotations CORPUS.json --out UNUSED

The arguments are the command's own; nothing is written to ``--out``. The
set-up runs through the CLI's own code: its parser, ``parse_annotations``,
then for ``targets`` the config document and ``TargetConfig``, for
``coverage`` ``_normalized_poses`` and ``_coverage_ladder`` (whose
``kmeans_poses`` calls make the mean-pose and k-means shapes). Last,
``generate_grid`` builds each configuration's grid at each corpus image
size, as the pipeline's grid cache does before the first image.

Prints one JSON object of seconds: ``import_s`` (the package), ``parse_s``,
``modes_s`` (config or pose ladder), ``grid_s`` and their sum ``setup_s``;
then ``calibration_s``, the time of ``calibrate(command)``.
"""

from __future__ import annotations

import json
import sys
import time


def calibrate(command: str) -> float:
    """Seconds for a fixed mix of the kinds of work the command does.

    Building dicts and ``json.dumps`` per record, a Python loop over small
    numpy arrays, and vectorised ``exp`` over a large array. ``targets``
    spends most of its time per record, ``coverage`` in vectorised numpy, and
    a slow host slows the first more than the second, so the mix follows the
    command. It touches nothing in the package, so only the host's speed
    moves it.
    """
    import numpy as np

    records, sweeps = (10000, 3) if command == "targets" else (2500, 12)
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for i, value in enumerate(rng.random(records).tolist()):
        json.dumps({"image": i, "level": i % 5, "row": i % 31, "col": i % 29, "slot": i % 9,
                    "label": 0, "gt": None, "sim": value, "valid": None, "offsets": None},
                   sort_keys=True)
    points = rng.random((24, 2))
    for p in rng.random((2500, 2)):
        int(np.abs(points - p).sum(axis=1).argmin())
    grid = rng.random((36828, 17))
    for _ in range(sweeps):
        float(np.exp(-grid).sum())
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    from pointset_anchors import cli
    from pointset_anchors.anchors import MASK_MODE, POSE_MODE, generate_grid

    t1 = time.perf_counter()
    args = cli.build_parser().parse_args(argv)
    result = cli.parse_annotations(args.annotations)
    cli._report_parse_stats(result)
    t2 = time.perf_counter()
    if args.command == "targets":
        document = cli.load_config_document(args.config) if args.config else {}
        grids = [(cli.TargetConfig.from_dict(document).pyramid, MASK_MODE, None)]
    else:
        ladder = cli._coverage_ladder(args, cli._normalized_poses(result))
        grids = [(config.pyramid, POSE_MODE, config.canonical_poses) for config in ladder]
    t3 = time.perf_counter()
    for size in sorted({record.image_size for record in result.records}):
        for pyramid, mode, poses in grids:
            generate_grid(pyramid, size, mode, poses)
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "modes_s": t3 - t2,
                      "grid_s": t4 - t3, "setup_s": t4 - t0,
                      "calibration_s": calibrate(args.command)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
