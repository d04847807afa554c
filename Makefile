# Development / CI entry points.
#
#   make ci      build + full test suite + format check + lint + short fuzz
#                + benchmark smoke
#   make build   compile everything
#   make test    run the alcotest/qcheck suites
#   make fmt     check formatting (skipped when ocamlformat is absent)
#   make lint    verify + lint + certificate-guarded simplify over every
#                benchmark and example system (exit 2 on a refuted/unknown
#                certificate, 4 on a scheduler/binder invariant violation,
#                3 on other error-severity findings)
#   make fuzz    short differential fuzz run (20 random systems through
#                every method and all six oracles of bin/fuzz.ml)
#   make bench   quick benchmark smoke run (tables + short timings)
#   make bench-json
#                render a quick-mode bench document (speedups vs the
#                committed baseline) to _build/BENCH_quick.json and validate
#                it against the schema; the committed BENCH_PR3*.json are
#                the historical anchor and stay unchanged
#   make represent-dump
#                print Represent.build's output over the named and random_mix
#                systems (ring on and off) to _build/represent_dump.txt;
#                cmp it against the same file from another commit to show a
#                change leaves every decomposition byte-identical
#   make represent-check
#                run represent-dump and compare the md5 of its output with
#                test/data/represent_dump.md5; a change that moves a
#                decomposition on purpose updates that file and says why
#   make integrated-dump
#                print the programs of Integrated.variants and
#                Baselines.factor_cse over the same corpus to
#                _build/integrated_dump.txt
#   make integrated-check
#                run integrated-dump and compare the md5 of its output with
#                test/data/integrated_dump.md5, the same way
#   make search-dump
#                print Search.select's winners (labels, costs, program) under
#                every objective over the same corpus, ring on and off, to
#                _build/search_dump.txt
#   make search-check
#                run search-dump and compare the md5 of its output with
#                test/data/search_dump.md5, the same way

.PHONY: ci build test fmt lint fuzz bench bench-json represent-dump \
  represent-check integrated-dump integrated-check search-dump search-check

ci: build test fmt lint fuzz bench bench-json represent-check integrated-check \
  search-check

lint:
	dune exec bin/polysynth.exe -- --benchmark all --check --lint --simplify
	@for f in examples/data/*.poly; do \
	  echo "== $$f"; \
	  dune exec bin/polysynth.exe -- "$$f" --check --lint --simplify || exit $$?; \
	done

build:
	dune build

test:
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

fuzz:
	dune exec bin/fuzz.exe -- 20

bench:
	dune exec bench/main.exe -- --quick

bench-json:
	mkdir -p _build
	dune exec bench/main.exe -- --quick --json \
	  --baseline BENCH_PR3_BASELINE.json > _build/BENCH_quick.json
	dune exec bench/main.exe -- --validate _build/BENCH_quick.json

represent-dump:
	mkdir -p _build
	dune exec bench/represent_dump.exe > _build/represent_dump.txt

represent-check: represent-dump
	@expected=$$(cat test/data/represent_dump.md5); \
	actual=$$(md5sum < _build/represent_dump.txt | cut -d' ' -f1); \
	if [ "$$actual" = "$$expected" ]; then \
	  echo "represent-check: ok ($$actual)"; \
	else \
	  echo "represent-check: md5 $$actual, expected $$expected"; exit 1; \
	fi

integrated-dump:
	mkdir -p _build
	dune exec bench/integrated_dump.exe > _build/integrated_dump.txt

integrated-check: integrated-dump
	@expected=$$(cat test/data/integrated_dump.md5); \
	actual=$$(md5sum < _build/integrated_dump.txt | cut -d' ' -f1); \
	if [ "$$actual" = "$$expected" ]; then \
	  echo "integrated-check: ok ($$actual)"; \
	else \
	  echo "integrated-check: md5 $$actual, expected $$expected"; exit 1; \
	fi

search-dump:
	mkdir -p _build
	dune exec bench/search_dump.exe > _build/search_dump.txt

search-check: search-dump
	@expected=$$(cat test/data/search_dump.md5); \
	actual=$$(md5sum < _build/search_dump.txt | cut -d' ' -f1); \
	if [ "$$actual" = "$$expected" ]; then \
	  echo "search-check: ok ($$actual)"; \
	else \
	  echo "search-check: md5 $$actual, expected $$expected"; exit 1; \
	fi
