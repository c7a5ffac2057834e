from circlekit import verify
from circlekit.sampling import rng_for
from circlekit.verify import CheckResult, Family


def test_report_bytes_do_not_depend_on_threads():
    reports = [verify.run_suites("all", 5, 2, 1024, threads=t).to_json() for t in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]


def test_runner_emits_rows_in_order_and_takes_column_maxima():
    table = [
        CheckResult("fixed", 1.0, 2.0),
        Family(7, 2, lambda rng: (rng.random(), -1.0), (("draw", 1.0), ("constant", 0.0))),
        Family((8, 9), lambda trials: 3, lambda a, b: a.random() - b.random(), (("pair", 1.0),)),
    ]
    checks = verify._run(table, seed=3, trials=5)
    assert [c.name for c in checks] == ["fixed", "draw", "constant", "pair"]
    assert checks[1].residual == max(rng_for(3, 7, i).random() for i in range(5 // 2))
    assert checks[2].residual == -1.0
    assert checks[3].residual == max(rng_for(3, 8, i).random() - rng_for(3, 9, i).random() for i in range(3))
