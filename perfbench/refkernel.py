"""Reference kernel: a fixed amount of work the benchmark times next to every command.

It does not import capsched, and its work never changes, so its wall time
follows only the host's speed. It mixes what a capsched command spends its
time on: interpreter start and the numpy import, a dense n x n interference
matrix in numpy, a scalar per-pair loop in pure Python, and a JSON round
trip. ``run.py`` divides each command's wall time by the wall time of the
kernel run just before it.
"""

import json
import math

import numpy as np

rng = np.random.default_rng(20090419)
xy = rng.random((600, 4))
d = np.hypot(xy[:, None, 0] - xy[None, :, 2], xy[:, None, 1] - xy[None, :, 3]) + 1e-3
a = d**-3.0
np.fill_diagonal(a, 0.0)
matrix = float((a / a.sum(axis=0)).max())

pts = xy[:150].tolist()
scalar = 0.0
for sx, sy, _, _ in pts:
    for _, _, rx, ry in pts:
        scalar += 1.0 / (math.hypot(sx - rx, sy - ry) + 1e-3) ** 3

text = json.dumps([{"id": k, "p": p} for k, p in enumerate(xy.tolist())])
print(matrix, scalar, len(json.loads(text)))
