"""Command-line front end.

    finslergeo <subcommand> <scene.json> [flags]

Subcommands: probe, berwald, obstruction, causal, nonmetricity, report
(report runs everything applicable).  The machine-readable output is written
to <out>/report.json; stdout gets a short summary: the samples, a line per
section from `scene.summary_lines` (a negative verdict needs one computed
base point, a positive one all of them, else it is inconclusive), the
warnings and the exit code.  A flag's value may start with '-'.

Exit codes: 0 success, 1 errors (usage errors included), 2 when a
diagnostic proves non-metrizability (skew Ricci beyond tolerance), so shell
pipelines can branch on the verdict.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__, scene as scenemod
from .scene import SceneError


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, as argparse's exit 2 is the code
    of a proof of non-metrizability."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged.  A
    flag's value is kept as its text, for `scene.override_options`, and a
    flag that is not given is not in the namespace."""
    parser = _Parser(
        prog="finslergeo",
        description="pseudo-Finsler geometry diagnostics on tangent-bundle samples",
    )
    parser.add_argument("--version", action="version", version=f"finslergeo {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("probe", "admissibility and metric signature per sample"),
        ("berwald", "Berwald detection at each sample's base point"),
        ("obstruction", "Berwald detection plus the skew-Ricci obstruction"),
        ("causal", "causal classification of a family instance"),
        ("nonmetricity", "non-metricity of a reference metric under the connection"),
        ("report", "all applicable diagnostics"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("scene", help="scene JSON file")
        for opt in scenemod.OPTIONS:
            if opt.flag:
                sp.add_argument(
                    opt.flag, dest=opt.field, default=argparse.SUPPRESS, metavar="VALUE",
                    help=f"replaces {opt.pointer}",
                )
        sp.add_argument(
            "--out",
            default=None,
            metavar="DIR",
            help="output directory (default: FINSLER_OUT_DIR or '.')",
        )
    return parser


def _summary_lines(report: dict, options: scenemod.SceneOptions, exit_code: int) -> list[str]:
    meta = report["metadata"]
    lines = [
        f"finslergeo {meta['version']} — {meta['subcommand']}"
        f" (seed {meta['seed']}, {meta['directions']} directions)",
        f"{'sample':<16} {'in_A':<5} {'in_T':<5} {'L':>14} {'signature':>12}",
    ]
    for s in report.get("samples", []):
        adm = s["admissibility"]
        lval = adm["L"]
        sig = s.get("metric", {}).get("signature")
        lines.append(
            f"{s['label']:<16} {str(adm['in_A']):<5} {str(adm['in_T']):<5} "
            f"{'-' if lval is None else format(lval, '.6g'):>14} "
            f"{'-' if sig is None else str(tuple(sig)):>12}"
        )
    lines += scenemod.summary_lines(report, options)
    lines += [f"warning: {w}" for w in report.get("warnings", [])]
    return lines + [f"exit code {exit_code}"]


def _join_values(argv: list) -> list:
    """argv with each flag that takes a value joined to the word after it
    as `flag=word`, since argparse reads a word that starts with '-' (the
    convention -+++) as a flag.  A word that starts with '--' stays a flag,
    and a flag with no word after it stays for argparse to refuse."""
    flags = {opt.flag for opt in scenemod.OPTIONS if opt.flag} | {"--out"}
    words = []
    for word in argv:
        if words and words[-1] in flags and not word.startswith("--"):
            words[-1] += "=" + word
        else:
            words.append(word)
    return words


def main(argv=None) -> int:
    args = _build_parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    try:
        texts = {opt.field: vars(args)[opt.field] for opt in scenemod.OPTIONS
                 if opt.field in vars(args)}
        scene = scenemod.override_options(scenemod.load_scene_file(args.scene), **texts)
        report, exit_code = scenemod.run_scene(scene, args.subcommand)
    except SceneError as err:
        print(f"scene error: {err}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as err:  # MemoryError: a scene larger than memory
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1
    out_dir = Path(args.out or os.environ.get("FINSLER_OUT_DIR") or ".")
    out_path = out_dir / "report.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path.write_text(scenemod.render_json(report) + "\n", encoding="utf-8")
    except OSError as err:  # e.g. --out names a regular file or a path under one
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        for line in _summary_lines(report, scene.options, exit_code):
            print(line)
        print(f"report written to {out_path}", flush=True)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); report.json is complete,
        # so the run keeps its exit code, and what is left of stdout goes to
        # the null device, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
