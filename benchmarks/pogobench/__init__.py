"""pogobench — the repo's ruler.

Six named workloads drive the simulator through its public functions,
each repetition in a fresh child interpreter; the driver reports
end-to-end host metrics (wall, set-up, events/s, CPU, peak RSS), checks
that the simulated outputs are byte-stable, and — from separate traced
repetitions — attributes the time to phases and to the package each
function lives in.  See ``README.md`` beside this file.

Nothing here is imported by ``src/``; nothing here edits a file outside
this directory.
"""
