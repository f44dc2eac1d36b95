"""Access to the bundled mini-games."""

from importlib import resources

from .gamedef import GameParseError, load_game

BUNDLED = ("miniz", "chainworld", "deceive")


def bundled_game_text(name):
    if name not in BUNDLED:
        raise KeyError(f"no bundled game named {name!r}")
    return resources.files("questkg.data").joinpath(f"{name}.game").read_text()


def load_bundled(name):
    return load_game(bundled_game_text(name))


def load_path(path):
    """Load a game from a file path or a bundled name.  A file that is not
    UTF-8 raises GameParseError at the line of the first bad byte."""
    import os
    if os.path.exists(path):
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GameParseError(f"not UTF-8 text: {exc.reason}",
                                 raw.count(b"\n", 0, exc.start) + 1) from None
        return load_game(text)
    if path in BUNDLED:
        return load_bundled(path)
    raise FileNotFoundError(f"no game file or bundled game named {path!r}")
