"""Per-script energy, measured on the rail (the paper's first future-work item).

Section 6: "In the future we would like to implement power modelling to
estimate the resource consumption of individual scripts."  A phone can
only model that split.  A deterministic simulator can measure it, the
way the paper's Table 3 prices Pogo itself: the rail's energy with a
thing minus the rail's energy without it.

:func:`script_joules` runs a caller's recipe with every experiment, once
per script with that script left out, and once with no experiment.  A
script's row is its marginal joules per rail component (what the rail
saves when only that script is gone).  Energy that two or more scripts
each keep alive, such as a CPU wakeup that either would cause, is in no
script's margin; it is the shared row, all − none − Σ margins.  The
no-script run is the baseline: platform floor, radios, the e-mail app
and the middleware itself.  Scripts, shared and baseline add up to the
rail total of the run with every experiment.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence, Tuple

from .deployment import Experiment

#: One table row: a label and its joules per rail component.
Row = Tuple[str, Dict[str, float]]


def component_joules(phone) -> Dict[str, float]:
    """The joules each rail component of ``phone`` has drawn so far,
    keyed without the device prefix (``"cpu"``, ``"modem"``, …)."""
    prefix = f"{phone.name}."
    rail = phone.rail
    return {c.removeprefix(prefix): rail.energy_of(c) for c in rail.components}


def script_joules(
    run: Callable[[List[Experiment]], object], experiments: Sequence[Experiment]
) -> Tuple[List[Row], float]:
    """Measure each script's energy by leaving it out.

    ``run(experiments)`` is the caller's recipe: it builds and seeds a
    simulation, deploys exactly the experiments it is given, runs it and
    returns the device whose rail is read.  A script is named
    ``"<experiment>/<script>"`` (``ScriptHost.serial_key``), device and
    collector scripts alike; an experiment left with no script is not
    deployed.  Returns the rows (scripts by total joules, largest first,
    then ``"(shared)"`` and ``"(no scripts)"``; columns are the rail's
    components without the device prefix) and the rail total of the run
    with every experiment.  N scripts cost N + 2 runs.
    """

    def energy(deployed: List[Experiment]) -> Tuple[Dict[str, float], float]:
        phone = run(deployed).phone
        return component_joules(phone), phone.energy_joules

    def without(experiment: Experiment, name: str) -> Experiment:
        return dataclasses.replace(
            experiment,
            device_scripts={k: v for k, v in experiment.device_scripts.items() if k != name},
            collector_scripts={
                k: v for k, v in experiment.collector_scripts.items() if k != name
            },
        )

    everything, total = energy(list(experiments))
    baseline, _ = energy([])
    rests: Dict[str, Dict[str, float]] = {}
    for i, experiment in enumerate(experiments):
        for name in {**experiment.device_scripts, **experiment.collector_scripts}:
            rest = without(experiment, name)
            kept = [*experiments[:i], *experiments[i + 1:]]
            if rest.device_scripts or rest.collector_scripts:
                kept.insert(i, rest)
            rests[f"{experiment.experiment_id}/{name}"] = energy(kept)[0]
    # A component that one run never drew on reads 0.0 there.
    columns = sorted({c for joules in (everything, baseline, *rests.values()) for c in joules})
    everything, baseline = ({c: j.get(c, 0.0) for c in columns} for j in (everything, baseline))
    margins = sorted(
        (
            (script, {c: everything[c] - rest.get(c, 0.0) for c in columns})
            for script, rest in rests.items()
        ),
        key=lambda row: (-sum(row[1].values()), row[0]),
    )
    shared = {c: everything[c] - baseline[c] - sum(m[c] for _, m in margins) for c in columns}
    return [*margins, ("(shared)", shared), ("(no scripts)", baseline)], total


def joules_table(rows: List[Row], total: float) -> str:
    """The rows of :func:`script_joules` as a text table, with the rail total."""
    columns = list(rows[-1][1])
    width = max([len("rail total"), *(len(label) for label, _ in rows)])
    header = "".join(f"{c + ' J':>12}" for c in columns)
    lines = [f"{'script':<{width}}{header}{'total J':>12}"]
    for label, joules in rows:
        cells = "".join(f"{joules[c]:>12.2f}" for c in columns)
        lines.append(f"{label:<{width}}{cells}{sum(joules.values()):>12.2f}")
    lines.append(f"{'rail total':<{width}}{'':>{12 * len(columns)}}{total:>12.2f}")
    return "\n".join(lines)
