"""The `-h`/`--help` text of the command line, made from `cli.COMMANDS`.

`cli` imports this module only when help is asked for, so no other call
compiles it.  It takes the table as an argument: no module imports `cli`.
"""

from __future__ import annotations


def usage_text(commands: dict, help_option: tuple, command: str | None) -> str:
    """The usage of the program, or of one subcommand, from the table."""
    if command is None:
        usage = "[-h] COMMAND ..."
        about = "Class-group lattice invariants and blind reconstruction"
        rows = [(name, entry[2]) for name, entry in commands.items()]
    else:
        about, positionals, pairs, table = commands[command][2:]
        options = [help_option, *(o for pair in pairs for o in pair), *table]
        shown = {o: ", ".join(o[0]) + (f" {o[4]}" if o[4] else "") for o in options}
        spec = [f"({shown[a]} | {shown[b]})" for a, b in pairs]
        usage = " ".join([command, *(dest for dest, _ in positionals), *spec, "[options]"])
        rows = [*positionals, *((shown[o], o[5]) for o in options)]
    width = max(len(name) for name, _ in rows) + 2
    rows = [f"  {name:<{width}}{text}" for name, text in rows]
    return "\n".join([f"usage: classrecon {usage}", "", about, "", *rows])
