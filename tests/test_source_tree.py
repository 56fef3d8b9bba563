"""Rules on the package source itself."""

import ast
import importlib
import pathlib
import sys
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a runtime check written as
    # one vanishes; the package raises typed errors instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert list(SRC.rglob("*.py")), f"no package source under {SRC}"
    assert found == []


def test_no_private_names_imported_across_modules():
    # a module's _-prefixed names are its own; another module that needs
    # one should get a public name instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("bkmpc"):
                continue
            found += [
                f"{path.relative_to(SRC)}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []


def test_lapack_eigen_calls_only_in_eig_module():
    # numerics/eig.py turns every LAPACK eigen failure into the typed
    # ConvergenceError; a direct call elsewhere would let LinAlgError escape
    lapack = {"eig", "eigvals", "inv"}
    home = pathlib.Path("bkmpc", "numerics", "eig.py")
    found, at_home = [], 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                names = {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and ast.unparse(node.func.value).endswith("linalg")
            ):
                names = {node.func.attr}
            else:
                continue
            if not names & lapack:
                continue
            if path.relative_to(SRC) == home:
                at_home += 1
            else:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert at_home == 3
    assert found == []


def test_no_cholesky_call_in_package():
    # the QP's Newton step retries a singular free block by LU solves of
    # the block with its diagonal raised; a Cholesky check beside them
    # would factor the same block a second time
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "cholesky"
        ]
    assert found == []


def test_only_results_formats_floats():
    # results.write_csv formats every table cell; a writer elsewhere
    # passes raw values, so no other module names fmt_float
    found = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "results.py"
        and "fmt_float" in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_only_loss_forward_constructs_a_tape():
    # the autodiff ops compute plain values when no operand is on a tape,
    # so inference and the closed loop run the training forward on the
    # parameter arrays; only the training loss records one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] == "Tape"
            ):
                continue
            owner = node
            while owner in parent and not isinstance(owner, ast.FunctionDef):
                owner = parent[owner]
            name = getattr(owner, "name", "<module>")
            found.append(f"{path.relative_to(SRC).as_posix()}:{name}")
    assert found == ["bkmpc/model.py:loss_forward"]


def test_exponential_kernels_have_pinned_callers():
    # the latent recurrence is written once: every coupling exponential
    # under src/ goes through model.rollout (the rank path's through
    # LowRank.phi_half), the closed loop's one-step discretize and
    # linearize, or the tape's expm op and its adjoint, so a second
    # recurrence cannot grow back unseen; the two derivative kernels have
    # one caller each, the adjoint (matrices) and linearize (actions)
    kernels = {"expm", "matrix_exp", "matrix_exp_frechet", "matrix_exp_frechet_action"}
    found, derivative_callers = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names = {alias.name for alias in node.names} & kernels
                found |= {f"{path.relative_to(SRC).as_posix()}: import {n}" for n in names}
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] in kernels):
                continue
            owners, at = [], node
            while at in parent:
                at = parent[at]
                if isinstance(at, (ast.FunctionDef, ast.ClassDef)):
                    owners.insert(0, at.name)
            caller = f"{path.relative_to(SRC).as_posix()}:{'.'.join(owners)}"
            found.add(caller)
            kernel = ast.unparse(node.func).split(".")[-1]
            if kernel.startswith("matrix_exp_frechet"):
                derivative_callers.add(f"{kernel} <- {caller}")
    assert derivative_callers == {
        "matrix_exp_frechet <- bkmpc/numerics/autodiff.py:_adj_expm",
        "matrix_exp_frechet_action <- bkmpc/scp_mpc.py:linearize",
    }
    assert found == {
        "bkmpc/model.py:rollout",
        "bkmpc/model.py:LowRank.phi_half",
        "bkmpc/model.py:discretize",
        "bkmpc/numerics/autodiff.py:expm",
        "bkmpc/numerics/autodiff.py:_adj_expm",
        "bkmpc/scp_mpc.py:linearize",
    }


def test_simulator_derivatives_have_pinned_callers():
    # every simulated step goes through step_euler, whose deriv_batch
    # call the bench's span counts; the only other callers evaluate the
    # rscp balance at the operating point when a preset is built
    derivs = {"deriv_batch", "rscp_deriv_batch", "cartpole_deriv_batch"}
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] in derivs):
                continue
            at = node
            while at in parent and not isinstance(at, ast.FunctionDef):
                at = parent[at]
            found.add(f"{path.relative_to(SRC).as_posix()}:{getattr(at, 'name', '<module>')}")
    assert found == {
        "bkmpc/simulators.py:deriv_batch",
        "bkmpc/simulators.py:step_euler",
        "bkmpc/simulators.py:rscp_nominal_duties",
        "bkmpc/simulators.py:rscp_fixed_point",
    }


def test_rank_path_factor_has_one_caller():
    # the rank path never forms the (T, B, dz, dz) factor stack: I + U
    # phi1(X) V^T is built only by the hinge, for the steps its bound
    # cannot certify
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "factor"):
                continue
            owners, at = [], node
            while at in parent:
                at = parent[at]
                if isinstance(at, (ast.FunctionDef, ast.ClassDef)):
                    owners.insert(0, at.name)
            found.append(f"{path.relative_to(SRC).as_posix()}:{'.'.join(owners)}")
    assert found == ["bkmpc/model.py:LowRank.hinge"]


def test_encoder_has_one_caller():
    # the operator generator reads only the last conv_kernel lookback
    # states, and encode_history encodes only those; no other path under
    # src/ may encode states, so none can go back to encoding the whole
    # lookback unseen
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "encode_batch"):
                continue
            at = node
            while at in parent and not isinstance(at, ast.FunctionDef):
                at = parent[at]
            found.add(f"{path.relative_to(SRC).as_posix()}:{getattr(at, 'name', '<module>')}")
    assert found == {"bkmpc/model.py:encode_history"}


def test_held_step_is_formed_only_by_the_bundle():
    # exp(a .* delta) and phi1(a, delta) are formed once per bundle, by
    # OperatorBundle.held, which the recurrence, discretize and the
    # closed loop's linearization read; the other phi1 call is the
    # kernel's own partials
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                names = {ast.unparse(x).split(".")[-1] for x in (node.left, node.right)}
                if names != {"a_act", "delta"}:
                    continue
            elif not (isinstance(node, ast.Call)
                      and ast.unparse(node.func).split(".")[-1] == "phi1"):
                continue
            owners, at = [], node
            while at in parent:
                at = parent[at]
                if isinstance(at, (ast.FunctionDef, ast.ClassDef)):
                    owners.insert(0, at.name)
            found.add(f"{path.relative_to(SRC).as_posix()}:{'.'.join(owners)}")
    assert found == {
        "bkmpc/model.py:OperatorBundle.held",
        "bkmpc/numerics/dense.py:phi1_partials",
    }


def test_mpc_config_holds_only_the_cost_and_the_episode_length():
    # the plan length is the model's horizon, the SCP iterations come from
    # the controller kind and the initial trust radius is a constant, so
    # none of them is a second, settable source of truth
    path = SRC / "bkmpc" / "scp_mpc.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (cls,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "MpcConfig"
    ]
    fields = [
        node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)
    ]
    assert fields == ["q_weights", "r_weights", "p_weights", "x_ref", "episode_len"]


def test_residuals_are_evaluated_once_per_iterate():
    # scp_solve evaluates each iterate's residuals once and hands them to
    # plan_cost and condense, so only it calls cost_residuals, and
    # condense reads none of the inputs a second evaluation would need
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "cost_residuals"):
                continue
            at = node
            while at in parent and not isinstance(at, ast.FunctionDef):
                at = parent[at]
            found.add(f"{path.relative_to(SRC).as_posix()}:{getattr(at, 'name', '<module>')}")
    assert found == {"bkmpc/scp_mpc.py:scp_solve"}
    path = SRC / "bkmpc" / "scp_mpc.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (fn,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "condense"
    ]
    read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
    read |= {node.arg for node in ast.walk(fn) if isinstance(node, ast.arg)}
    assert read & {"cfg", "params", "bundle"} == set()


def test_solve_constants_are_formed_once_per_solve():
    # the cost weights and the increment penalty depend on the solve, not
    # on the iterate: scp_solve forms them before its iteration loop, and
    # only the condensation, which reads the iterate, runs inside it
    per_solve = {"_increment_difference", "cost_weights", "condense"}
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func).split(".")[-1]
            if name not in per_solve:
                continue
            at, in_loop = node, False
            while at in parent and not isinstance(at, ast.FunctionDef):
                at = parent[at]
                in_loop |= isinstance(at, (ast.For, ast.While))
            where = f"{path.relative_to(SRC).as_posix()}:{getattr(at, 'name', '<module>')}"
            found.add((name, where, in_loop))
    assert found == {
        ("_increment_difference", "bkmpc/scp_mpc.py:scp_solve", False),
        ("cost_weights", "bkmpc/scp_mpc.py:scp_solve", False),
        ("condense", "bkmpc/scp_mpc.py:scp_solve", True),
    }


def test_only_datagen_constructs_a_philox():
    # every episode stream, the closed loop's too, is keyed by
    # datagen.episode_key, so a second key formula cannot grow back
    # unseen in another module
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {
            path.relative_to(SRC).as_posix()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "Philox"
        }
    assert found == {"bkmpc/datagen.py"}


def test_bench_wrapped_names_exist(monkeypatch):
    # the traced bench wraps functions at the names their callers look
    # them up by; a deleted or renamed one would otherwise fail only when
    # the bench runs
    monkeypatch.syspath_prepend(str(BENCH))
    bench_modules = ("common", "spans", "layers", "pipeline")
    try:
        pipeline = importlib.import_module("pipeline")
        mods = SimpleNamespace(**{
            name.rsplit(".", 1)[-1]: importlib.import_module(name)
            for name in pipeline._MODULES
        })
        points = pipeline.instrument_points(mods, rec=None)
    finally:
        for name in bench_modules:
            sys.modules.pop(name, None)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in points
        if not hasattr(owner, attr)
    ]
    assert len(points) > 20
    assert missing == []
