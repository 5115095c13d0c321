"""Traced launcher: run one ``repro`` CLI command with every layer wrapped.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launcher.py OUT -- plan --city chicago --scale 0.2

It imports ``repro.cli``, wraps the layer functions listed in
``layers.py``, and calls ``repro.cli.main`` with the arguments after
``--``.  It writes cumulative layer snapshots as JSON:

* ``OUT.boot.json`` when ``repro serve`` starts listening;
* ``OUT.mark<N>.json`` on the N-th ``SIGUSR1`` (the benchmark brackets
  its timed request phase with two of these);
* ``OUT.final.json`` when the command returns.

``$PERFBENCH_SPAWN_T`` is the parent's ``time.monotonic()`` at spawn;
the time from there until ``repro.cli`` is imported is recorded as the
``startup.import`` layer.  No file under ``src/`` is changed.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from typing import Any, Callable, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import COUNTED, RESULT_HOOKS, TIMED, Recorder  # noqa: E402


def _write(path: str, data: Dict[str, Any]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(data, handle)
    os.replace(tmp, path)


def _rebind(original: Any, replacement: Any) -> None:
    """Point every reference to ``original`` held by a loaded ``repro``
    module (a global, or a value of a module-level dict such as an
    endpoint table) at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for dict_key, dict_value in list(value.items()):
                    if dict_value is original:
                        value[dict_key] = replacement


def _install(
    table: List[Any], make: Callable[[str, Any], Any]
) -> None:
    for name, module_name, attr in table:
        module = sys.modules.get(module_name)
        if module is None:
            continue  # layer not used by this command
        owner: Any = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = make(name, original)
        if path:
            setattr(owner, leaf, wrapped)
        else:
            _rebind(original, wrapped)


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print("usage: launcher.py OUT -- <repro command>", file=sys.stderr)
        return 2
    import repro.cli

    if argv[0] == "serve":
        import repro.serve  # noqa: F401 - loaded so its layers get wrapped
    imported = time.monotonic()

    recorder = Recorder()
    startup = imported - float(os.environ["PERFBENCH_SPAWN_T"])
    recorder.time["startup.import"] = recorder.self_time["startup.import"] = startup
    recorder.calls["startup.import"] = 1

    engines: List[Any] = []
    engine_cls = sys.modules["repro.network.engine"].SearchEngine
    engine_init = engine_cls.__init__

    def tracked_init(self: Any, *args: Any, **kwargs: Any) -> None:
        engine_init(self, *args, **kwargs)
        engines.append(self)

    engine_cls.__init__ = tracked_init
    _install(
        TIMED, lambda name, fn: recorder.wrap(name, fn, RESULT_HOOKS.get(name))
    )
    _install(COUNTED, recorder.counter)

    server_module = sys.modules.get("repro.serve.server")
    if server_module is not None:
        run_server = server_module.run_server

        def marked_run_server(server: Any) -> None:
            _write(out + ".boot.json", recorder.snapshot(engines))
            run_server(server)

        _rebind(run_server, marked_run_server)

    marks = [0]

    def on_mark(signum: int, frame: Any) -> None:
        marks[0] += 1
        _write(f"{out}.mark{marks[0]}.json", recorder.snapshot(engines))

    signal.signal(signal.SIGUSR1, on_mark)
    try:
        code = repro.cli.main(argv)
    finally:
        _write(out + ".final.json", recorder.snapshot(engines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
