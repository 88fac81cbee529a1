"""Print the ziggurat tables module that ``wfasim._pcg64`` draws normals with.

Usage::

    python3 tools/ziggurat_tables.py [ARCHIVE] > src/wfasim/_ziggurat.py

numpy's standard normal reads three 256-entry tables: ``ki_double``
(uint64), ``wi_double`` and ``fi_double`` (double). They are local symbols
in the ``.rodata`` of ``distributions.c.o``, a member of the static archive
numpy installs as ``numpy/random/lib/libnpyrandom.a``. This script reads the
``ar`` archive and the ELF object in plain Python (``readelf -s`` shows the
same symbols), found through numpy's install path without importing numpy,
or from ARCHIVE when given.

It prints the module to stdout. Each double is written as its ``repr``,
which reads back as the same double. Exit status: 0 when
``src/wfasim/_ziggurat.py`` holds exactly the printed text, 1 when it
differs, 2 when no numpy archive is found or it holds no such tables.
"""

from __future__ import annotations

import argparse
import importlib.util
import struct
import sys
from pathlib import Path

MODULE = Path(__file__).resolve().parent.parent / "src" / "wfasim" / "_ziggurat.py"
ARCHIVE = Path("random", "lib", "libnpyrandom.a")
TABLES = {"ki_double": "<256Q", "wi_double": "<256d", "fi_double": "<256d"}
SHT_SYMTAB = 2


def numpy_archive() -> Path | None:
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for root in spec.submodule_search_locations:
        path = Path(root, ARCHIVE)
        if path.is_file():
            return path
    return None


def ar_members(data: bytes):
    """Yield (name, bytes) per member of a System V / GNU ``ar`` archive."""
    if not data.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(data):
        header = data[pos:pos + 60]
        name = header[:16].decode().rstrip()
        size = int(header[48:58])
        body = data[pos + 60:pos + 60 + size]
        pos += 60 + size + (size & 1)  # members start on even offsets
        if name == "//":  # GNU table of names longer than 15 bytes
            long_names = body
        elif name.startswith("/") and name[1:].isdigit():
            start = int(name[1:])
            yield long_names[start:long_names.index(b"/\n", start)].decode(), body
        elif name != "/":  # "/" is the archive's symbol index
            yield name.rstrip("/"), body


def elf_symbols(obj: bytes) -> dict[str, bytes]:
    """The bytes of each sized symbol of a little-endian ELF64 relocatable."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        return {}
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    sections = [struct.unpack_from("<IIQQQQIIQQ", obj, shoff + i * shentsize)
                for i in range(shnum)]
    found = {}
    for _, kind, _, _, offset, size, link, _, _, entsize in sections:
        if kind != SHT_SYMTAB:
            continue
        strtab = sections[link][4]
        for at in range(offset, offset + size, entsize):
            name_at, _, _, shndx, value, sym_size = struct.unpack_from("<IBBHQQ", obj, at)
            if not sym_size or not 0 < shndx < shnum:
                continue
            name = obj[strtab + name_at:obj.index(b"\0", strtab + name_at)].decode()
            start = sections[shndx][4] + value
            found[name] = obj[start:start + sym_size]
    return found


def read_tables(archive: Path) -> dict[str, tuple] | None:
    for name, body in ar_members(archive.read_bytes()):
        if not name.endswith("distributions.c.o"):
            continue
        symbols = elf_symbols(body)
        if all(len(symbols.get(t, b"")) == struct.calcsize(f) for t, f in TABLES.items()):
            return {t: struct.unpack(f, symbols[t]) for t, f in TABLES.items()}
    return None


def _rows(values, per_line: int, fmt) -> str:
    return "\n".join(
        "    " + " ".join(f"{fmt(v)}," for v in values[i:i + per_line])
        for i in range(0, len(values), per_line)
    )


def render(tables: dict[str, tuple], source: str) -> str:
    return f'''"""numpy's ziggurat tables for the standard normal, 256 entries each.

Generated by ``tools/ziggurat_tables.py`` from numpy's ``{source}``; do
not edit. ``KI`` holds ``ki_double``, ``WI`` ``wi_double`` and ``FI``
``fi_double``.
"""

KI = (
{_rows(tables["ki_double"], 4, lambda v: f"0x{v:016x}")}
)

WI = (
{_rows(tables["wi_double"], 3, repr)}
)

FI = (
{_rows(tables["fi_double"], 3, repr)}
)
'''


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("archive", nargs="?", type=Path,
                        help="libnpyrandom.a (default: the installed numpy's)")
    args = parser.parse_args(argv)
    archive = args.archive or numpy_archive()
    if archive is None or not archive.is_file():
        print("error: no numpy libnpyrandom.a found", file=sys.stderr)
        return 2
    tables = read_tables(archive)
    if tables is None:
        print(f"error: {archive} holds no ziggurat tables", file=sys.stderr)
        return 2
    text = render(tables, ARCHIVE.as_posix())
    sys.stdout.write(text)
    current = MODULE.read_text() if MODULE.is_file() else None
    if current != text:
        print(f"{MODULE.name} differs from the tables in {archive}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
