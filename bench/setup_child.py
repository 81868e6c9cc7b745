"""Set-up as a user pays it: a fresh interpreter imports expert_spread and
parses one workload's generated inputs, read as JSON from stdin.

Usage: python3 setup_child.py <src dir> <workload> < inputs.json
The caller times the whole process, interpreter start and exit included.
"""

import io
import json
import sys

sys.path.insert(0, sys.argv[1])
workload = sys.argv[2]
payload = json.load(sys.stdin)

from expert_spread import config, discretize  # noqa: E402

if workload == "reduce":
    for text in payload:
        config.load_config(io.StringIO(text))
elif workload == "coarsen":
    for text in payload:
        discretize.load_space(io.StringIO(text))
else:
    for delta in payload:
        config.validate_delta(delta)
