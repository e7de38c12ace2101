"""One cold batch job: import, load a graph file, run SSSP, export CSV.

``python job.py GRAPH_FILE OUT_CSV`` -- what a batch user pays from a cold
interpreter to exported states.  After each stage the job takes three
calibration probes (measure.py), so that the parent can normalise stage by
stage instead of across the whole second the job takes; the stamps exclude
the probes.  The last line of its output is a JSON object: per stage the
``time.time()`` at its end and the probes taken after it (the parent holds
the stamp and the probes from before the spawn), the run's counters and
this process's peak RSS.
"""

import json
import resource
import sys
import time

from repro import api
from repro.algorithms import default_source
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.results_io import export_states_csv

from measure import calibration_probe


def main(graph_file: str, out_csv: str) -> int:
    stages = []

    def stage_done(name: str) -> None:
        ended = time.time()
        probes = [calibration_probe() for _ in range(3)]
        stages.append({"name": name, "ended": ended, "probes": probes,
                       "resumed": time.time()})

    stage_done("spawn_import")
    graph = api.load_graph(graph_file)
    stage_done("load")
    result = api.run(graph, TemporalSSSP(default_source(graph)))
    stage_done("run")
    rows = export_states_csv(result, out_csv)
    stage_done("export")
    print(json.dumps({
        "stages": stages,
        "rows": rows,
        "messages": result.metrics.total_messages,
        "supersteps": result.metrics.supersteps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
