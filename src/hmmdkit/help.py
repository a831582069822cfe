"""Help text of the ``hmmdkit`` CLI.

``cli.main`` imports this module only when ``-h`` or ``--help`` is given,
so a run that solves a problem never compiles it. It reads the CLI's
tables as arguments and does not import ``hmmdkit.cli``.
"""

from __future__ import annotations


def help_text(command: str | None, commands: dict, flags: dict) -> str:
    """Help for one subcommand, or for every one when ``command`` is None,
    from the CLI's subcommand and flag tables (``cli.COMMANDS`` and
    ``cli.FLAGS``)."""
    names = [command] if command else list(commands)
    weighted = [(n, commands[n][1], commands[n][3]) for n in names if commands[n][3]]
    shown = [f for f in flags if f != "--weights" or weighted]
    usage = " ".join(
        f"{f} {flags[f][0]}" if f == "--input" else f"[{f} {flags[f][0]}]".replace(" ]", "]") for f in shown
    )
    lines = [f"usage: hmmdkit {command or '<subcommand>'} {usage}", ""]
    if command is None:
        lines += ["Multicriteria ranking, selection and morphological synthesis toolkit.", ""]
    rows = [("subcommand", "problem type", "methods (default first)")]
    for name in names:
        ptype, methods, default, *_ = commands[name]
        listed = ", ".join(sorted(methods, key=lambda m: m != default))
        rows.append((name, ptype, listed if default else f"the file's linkage, or {listed}"))
    a, b = (max(len(row[i]) for row in rows) for i in (0, 1))
    lines += [f"{x:<{a}}  {y:<{b}}  {z}" for x, y, z in rows]
    lines += ["", "flags:"]
    for f in shown:
        value, text = flags[f]
        if f == "--weights":
            text += " (" + ", ".join(n if w == m else f"{n} {'/'.join(w)}" for n, m, w in weighted) + ")"
        lines.append(f"  {f'{f} {value}'.rstrip():<20}  {text}")
    lines.append(f"  {'-h, --help':<20}  show this help and exit")
    return "\n".join(lines) + "\n"
