"""The unsliced layers the slimmable net is built from."""
