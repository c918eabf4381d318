import os
import subprocess
import sys
import textwrap

import expander_routing

SCRIPT = textwrap.dedent(
    """
    import sys

    import expander_routing
    from expander_routing.expanders import gen_random_regular_graph
    from expander_routing.profiles import desk_profile

    g = gen_random_regular_graph(150, 30, seed=3)
    engine = expander_routing.RoutingEngine(g, desk_profile(150, 30))
    for a, b in ((0, 1), (2, 3), (4, 5)):
        engine.find_path(a, b)
    assert engine.verify().ok
    assert "numpy" not in sys.modules, "numpy loaded by the routing path"

    report = expander_routing.estimate_second_eigenvalue(g)
    assert "numpy" in sys.modules and report.converged
    print("ok")
    """
)


def test_routing_and_verify_do_not_load_numpy():
    """numpy is needed only by the spectral estimate, which imports it lazily."""
    src = os.path.dirname(os.path.dirname(expander_routing.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
