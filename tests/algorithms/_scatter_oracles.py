"""The library programs' ``scatter`` bodies, kept as oracles of their
``transfer`` methods.

Every in-repo :class:`IntervalProgram` declares its per-piece edge transfer
in row form (``transfer(ctx, edge, start, end, state, piece)``).  Each class
here subclasses one of them and defines the paper's ``scatter(ctx, edge,
interval, state)`` instead — the body the program had before it declared
``transfer``.  Because the engine calls the method of the first class in the
MRO that defines either, these subclasses run through the adapter
(``IntervalProgram.transfer``): a run with the oracle must equal a run with
the library class in states, counters and bytes.

``ORACLES`` maps ``(module, class name)`` to the oracle class.
"""

from repro.algorithms.td.eat import NEVER, TemporalEAT
from repro.algorithms.td.fast import SOURCE, TemporalFAST
from repro.algorithms.td.journeys import TemporalSSSPJourneys
from repro.algorithms.td.kcore import DEAD, TemporalKCore
from repro.algorithms.td.lcc import SEED as LCC_SEED, TemporalLCC
from repro.algorithms.td.ld import IMPOSSIBLE, TemporalLD
from repro.algorithms.td.reach import TemporalReachability
from repro.algorithms.td.sssp import INFINITY, TemporalSSSP
from repro.algorithms.td.tc import SEED as TC_SEED, TemporalTC
from repro.algorithms.td.tmst import TemporalTMST
from repro.algorithms.ti.bfs import UNREACHED, TemporalBFS
from repro.algorithms.ti.pagerank import TemporalPageRank
from repro.algorithms.ti.scc import BLOCKED, MinLabelPass
from repro.algorithms.ti.wcc import TemporalWCC
from repro.core.interval import FOREVER, Interval


class ScatterBFS(TemporalBFS):
    def scatter(self, ctx, edge, interval, state):
        if state >= UNREACHED:
            return None
        return [(interval, state + 1)]


class ScatterWCC(TemporalWCC):
    def scatter(self, ctx, edge, interval, state):
        # The paper's rule when scatter is not provided: forward the state.
        return [(interval, state)]


class ScatterPageRank(TemporalPageRank):
    def scatter(self, ctx, edge, interval, state):
        if ctx.superstep >= self.fixed_supersteps:
            return None
        out = []
        for seg, degree in ctx.out_degree_segments(interval):
            if degree > 0:
                out.append((seg, state / degree))
        return out


class ScatterMinLabelPass(MinLabelPass):
    def scatter(self, ctx, edge, interval, state):
        if state == BLOCKED:
            return None
        return [(interval, state)]


class ScatterSSSP(TemporalSSSP):
    def scatter(self, ctx, edge, interval, state):
        if state >= INFINITY:
            return None
        travel_time = edge.get(self.time_label, 1)
        travel_cost = edge.get(self.cost_label, 1)
        return [(Interval(interval.start + travel_time, FOREVER), state + travel_cost)]


class ScatterEAT(TemporalEAT):
    def scatter(self, ctx, edge, interval, state):
        if state >= NEVER:
            return None
        travel_time = edge.get(self.time_label, 1)
        arrival = interval.start + travel_time
        return [(Interval(arrival, FOREVER), arrival)]


class ScatterReachability(TemporalReachability):
    def scatter(self, ctx, edge, interval, state):
        if not state:
            return None
        travel_time = edge.get(self.time_label, 1)
        return [(Interval(interval.start + travel_time, FOREVER), True)]


class ScatterFAST(TemporalFAST):
    def compute(self, ctx, interval, state, messages):
        # The two-generator fold ``compute`` had before it became one loop.
        if ctx.superstep == 1:
            if ctx.vertex_id == self.source:
                ctx.set_state(interval, SOURCE)
            return
        if state == SOURCE:
            return
        latest_start, best_duration = state
        new_start = max((s for s, _ in messages), default=-1)
        new_duration = min((a - s for s, a in messages), default=FOREVER)
        if new_start > latest_start or new_duration < best_duration:
            ctx.set_state(
                interval, (max(latest_start, new_start), min(best_duration, new_duration))
            )

    def scatter(self, ctx, edge, interval, state):
        travel_time = edge.get(self.time_label, 1)
        if state == SOURCE:
            window = interval
            if window.is_unbounded:
                if self.horizon is None:
                    raise ValueError("FAST needs a horizon for unbounded departure windows")
                clipped = window.intersect(Interval(0, self.horizon))
                if clipped is None:
                    return None
                window = clipped
            return [
                (Interval(t + travel_time, FOREVER), (t, t + travel_time))
                for t in window.points()
            ]
        latest_start, _ = state
        if latest_start < 0:
            return None
        arrival = interval.start + travel_time
        return [(Interval(arrival, FOREVER), (latest_start, arrival))]


class ScatterTMST(TemporalTMST):
    def scatter(self, ctx, edge, interval, state):
        if state[0] >= FOREVER:
            return None
        travel_time = edge.get(self.time_label, 1)
        arrival = interval.start + travel_time
        return [(Interval(arrival, FOREVER), (arrival, ctx.vertex_id))]


class ScatterLD(TemporalLD):
    def scatter(self, ctx, edge, interval, state):
        if state <= IMPOSSIBLE:
            return None
        travel_time = edge.get(self.time_label, 1)
        t_max = min(interval.end - 1, state - travel_time)
        if t_max < interval.start:
            return None
        return [(Interval(0, t_max + 1), t_max)]


class ScatterKCore(TemporalKCore):
    def scatter(self, ctx, edge, interval, state):
        if state == DEAD:
            return [(interval, 1)]
        return None


class ScatterLCC(TemporalLCC):
    def scatter(self, ctx, edge, interval, state):
        if state == LCC_SEED:
            return [(interval, ("nbr", ctx.vertex_id))]
        if state and state[0] == "origins":
            return [(interval, ("fwd", state[1]))]
        return None


class ScatterTC(TemporalTC):
    def scatter(self, ctx, edge, interval, state):
        if state == TC_SEED:
            return [(interval, ("nbr", ctx.vertex_id))]
        if state and state[0] == "wedge":
            return [(interval, ("fwd", state[1]))]
        return None


class ScatterSSSPJourneys(TemporalSSSPJourneys):
    def scatter(self, ctx, edge, interval, state):
        cost = state[0]
        if cost >= FOREVER:
            return None
        travel_time = edge.get(self.time_label, 1)
        travel_cost = edge.get(self.cost_label, 1)
        departure = interval.start
        return [(
            Interval(departure + travel_time, FOREVER),
            (cost + travel_cost, departure, ctx.vertex_id),
        )]


ORACLES = {
    ("repro.algorithms.ti.bfs", "TemporalBFS"): ScatterBFS,
    ("repro.algorithms.ti.wcc", "TemporalWCC"): ScatterWCC,
    ("repro.algorithms.ti.pagerank", "TemporalPageRank"): ScatterPageRank,
    ("repro.algorithms.ti.scc", "MinLabelPass"): ScatterMinLabelPass,
    ("repro.algorithms.td.sssp", "TemporalSSSP"): ScatterSSSP,
    ("repro.algorithms.td.eat", "TemporalEAT"): ScatterEAT,
    ("repro.algorithms.td.reach", "TemporalReachability"): ScatterReachability,
    ("repro.algorithms.td.fast", "TemporalFAST"): ScatterFAST,
    ("repro.algorithms.td.tmst", "TemporalTMST"): ScatterTMST,
    ("repro.algorithms.td.ld", "TemporalLD"): ScatterLD,
    ("repro.algorithms.td.kcore", "TemporalKCore"): ScatterKCore,
    ("repro.algorithms.td.lcc", "TemporalLCC"): ScatterLCC,
    ("repro.algorithms.td.tc", "TemporalTC"): ScatterTC,
    ("repro.algorithms.td.journeys", "TemporalSSSPJourneys"): ScatterSSSPJourneys,
}
