"""Output checks of the benchmark.

Each check reads the raw document that ``pstore_perfbench`` prints (see
README.md) and returns a list of failure messages; an empty list is a
pass. ``run_checks`` applies every check that fits the document and
counts the runs it failed.
"""

def check_conservation(rep):
    """Every submitted txn committed or aborted.

    committed + aborted == submitted also means nothing was shed and
    nothing was still in flight after the drain.
    """
    done = rep["committed"] + rep["aborted"]
    if rep["submitted"] <= 0:
        return ["no transactions submitted"]
    if done != rep["submitted"]:
        return [
            "committed + aborted = %d but submitted = %d"
            % (done, rep["submitted"])
        ]
    return []


def check_repeat(rep, first):
    """Every untraced run of one seed yields the first run's digest."""
    if rep["digest"] != first["digest"]:
        return [
            "digest %s differs from the first run's %s"
            % (rep["digest"], first["digest"])
        ]
    return []


def check_traced(traced, first, layer_names):
    """The traced rebuild reproduces the untraced run and reads clean.

    Its digest must equal the untraced run's, every must-be-zero counter
    (txns in flight after the drain, rows lost, fenced commits, corrupt
    records served, net double applies, and the plan replay's distance
    from the controller's own plans, in plans and in DP cells) must be
    0, and it must report exactly the declared per-layer metrics.
    """
    failures = []
    if traced["digest"] != first["digest"]:
        failures.append(
            "traced digest %s differs from untraced %s"
            % (traced["digest"], first["digest"])
        )
    for name, value in sorted(traced["must_be_zero"].items()):
        if value != 0:
            failures.append("%s = %s, expected 0" % (name, value))
    reported = set(traced["layers"])
    expected = set(layer_names) - {"trace.overhead_frac"}
    if reported != expected:
        failures.append(
            "per-layer metrics differ: missing %s, unexpected %s"
            % (sorted(expected - reported), sorted(reported - expected))
        )
    return failures


def run_checks(doc, layer_names):
    """Applies every check; returns (attempted, failed, messages).

    One attempt is one simulated run: each untraced repetition, plus the
    traced run when there is one. An attempt fails if any check on it
    fails.
    """
    reps = doc["reps"]
    if not reps:
        return 1, 1, ["no runs recorded"]
    messages = []
    failed = 0
    for i, rep in enumerate(reps):
        problems = check_conservation(rep) + check_repeat(rep, reps[0])
        messages += ["run %d: %s" % (i, p) for p in problems]
        failed += bool(problems)
    attempted = len(reps)
    if "traced" in doc:
        attempted += 1
        problems = check_traced(doc["traced"], reps[0], layer_names)
        messages += ["traced run: %s" % p for p in problems]
        failed += bool(problems)
    return attempted, failed, messages
