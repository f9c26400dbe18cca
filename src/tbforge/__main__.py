from tbforge.cli import entry

entry()
