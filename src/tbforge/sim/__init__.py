"""External-simulator harness: structured outcomes, log parsing, backends."""
