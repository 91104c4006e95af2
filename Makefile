# Convenience targets; everything is plain dune underneath.

all: build

build:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

experiments-quick:
	dune exec bin/experiments.exe -- all

fig12:
	dune exec bin/experiments.exe -- fig12

fig13:
	dune exec bin/experiments.exe -- fig13

examples:
	dune exec examples/quickstart.exe
	dune exec examples/brand_awareness.exe
	dune exec examples/roi_equalizer.exe
	dune exec examples/heavyweight_auction.exe
	dune exec examples/daily_ramp.exe
	dune exec examples/search_session.exe
	dune exec examples/competitor_guard.exe

# Line counts (.ml + .mli) of the library, the executables and the tests.
loc:
	@for d in lib bin test; do \
	  printf '%-5s %6d\n' "$$d/" \
	    "$$(find $$d \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l)"; \
	done

clean:
	dune clean

.PHONY: all build test test-verbose bench experiments-quick fig12 fig13 examples loc clean
