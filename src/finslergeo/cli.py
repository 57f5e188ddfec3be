"""Command-line front end.

    finslergeo <subcommand> <scene.json> [flags]

Subcommands: probe, berwald, obstruction, causal, nonmetricity, report
(report runs everything applicable).  The machine-readable output is written
to <out>/report.json; a short human-readable summary goes to stdout.

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
    flag's value is kept as its text, for `scene.override_options`."""
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
                    opt.flag, dest=opt.field, metavar="VALUE", help=f"replaces {opt.pointer}"
                )
        sp.add_argument(
            "--out",
            default=None,
            metavar="DIR",
            help="output directory (default: FINSLER_OUT_DIR or '.')",
        )
    return parser


def _apply_flag_overrides(scene, args):
    texts = {
        opt.field: getattr(args, opt.field)
        for opt in scenemod.OPTIONS
        if opt.flag and getattr(args, opt.field) is not None
    }
    return scenemod.override_options(scene, **texts)


def _summary_lines(report: dict, exit_code: int) -> list[str]:
    meta = report["metadata"]
    lines = [
        f"finslergeo {meta['version']} — {meta['subcommand']}"
        f" (seed {meta['seed']}, {meta['directions']} directions)"
    ]
    header = f"{'sample':<16} {'in_A':<5} {'in_T':<5} {'L':>14} {'signature':>12}"
    lines.append(header)
    for s in report.get("samples", []):
        adm = s["admissibility"]
        lval = adm["L"]
        sig = s.get("metric", {}).get("signature")
        lines.append(
            f"{s['label']:<16} {str(adm['in_A']):<5} {str(adm['in_T']):<5} "
            f"{'-' if lval is None else format(lval, '.6g'):>14} "
            f"{'-' if sig is None else str(tuple(sig)):>12}"
        )
    geo = report.get("geometry", {})
    if "berwald" in geo:
        b = geo["berwald"]
        if b["is_berwald"] is None:
            lines.append("berwald: not computed (no base point evaluated)")
        else:
            lines.append(
                f"berwald: {'YES' if b['is_berwald'] else 'NO'}"
                f" (max deviation {b['max_gamma_deviation']:.3e})"
            )
    if "obstruction" in geo:
        o = geo["obstruction"]
        met = o["metrizability_necessary_condition_met"]
        if met is None:
            # the error of a Berwald base point, else there was none
            berwald_points = geo["berwald"]["per_base_point"]
            reason = next(
                (e["error"] for e, b in zip(o["per_base_point"], berwald_points)
                 if b.get("is_berwald")),
                "no Berwald base point",
            )
            lines.append(f"obstruction: not computed ({reason})")
        else:
            lines.append(
                f"obstruction: skew max {o['max_skew_abs']:.6g}"
                + (" — necessary condition met" if met else " — NON-METRIZABLE")
            )
    if "family_proposition" in geo:
        p = geo["family_proposition"]
        lines.append(
            "family proposition: "
            + ("non-metrizable (f != 0 and beta^dH != 0)" if p["fires"] else "inconclusive")
        )
    if "causal" in geo:
        c = geo["causal"]
        points = c["per_base_point"]
        classified = [e for e in points if "error" not in e]
        if c["viable"]:
            lines.append("causal: viable")
        elif not all(e["viable"] for e in classified):
            lines.append("causal: NOT viable")
        else:
            unclassified = len(points) - len(classified)
            lines.append(
                f"causal: inconclusive ({unclassified} of {len(points)}"
                " base points not classified)"
            )
    if "nonmetricity" in geo:
        qs = [
            e["Q_norm"] for e in geo["nonmetricity"]["per_base_point"] if "Q_norm" in e
        ]
        if qs:
            lines.append(f"nonmetricity: max |Q| = {max(qs):.6g}")
    for w in report.get("warnings", []):
        lines.append(f"warning: {w}")
    lines.append(f"exit code {exit_code}")
    return lines


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scene = scenemod.load_scene_file(args.scene)
        scene = _apply_flag_overrides(scene, args)
        report, exit_code = scenemod.run_scene(scene, args.subcommand)
    except SceneError as err:
        print(f"scene error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out_dir = Path(args.out or os.environ.get("FINSLER_OUT_DIR") or ".")
    out_path = out_dir / "report.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path.write_text(scenemod.render_json(report) + "\n", encoding="utf-8")
    except OSError as err:  # e.g. --out names a regular file or a path under one
        print(f"error: {err}", file=sys.stderr)
        return 1
    for line in _summary_lines(report, exit_code):
        print(line)
    print(f"report written to {out_path}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
