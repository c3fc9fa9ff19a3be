# Developer entry points. `make check` is the full pre-merge gate and every
# other target is one of its stages (`make lint`, `make race`, ...) or an
# extra (`make shards`, `make chaos`). The stages themselves — commands and
# order — live in scripts/check.sh and nowhere else; run
# `scripts/check.sh -l` for the list.

STAGES := $(shell sh scripts/check.sh -l)

.PHONY: check $(STAGES)

check:
	sh scripts/check.sh

$(STAGES):
	sh scripts/check.sh $@
