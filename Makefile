# Developer entry points. `make check` is the full pre-merge gate and every
# other target is one of its stages (`make lint`, `make chaos`, ...) or an
# extra (`make test`, `make benchjson`). The stages themselves — commands,
# order, artifact names — live in scripts/check.sh and nowhere else; run
# `scripts/check.sh -l` for the list.

STAGES := $(shell sh scripts/check.sh -l)

.PHONY: check $(STAGES)

check:
	sh scripts/check.sh

$(STAGES):
	sh scripts/check.sh $@
