#!/usr/bin/env bash
# Docs leg of the tier-1 gate: every relative markdown link in README.md,
# EXPERIMENTS.md and docs/*.md must target a file that exists, and every
# `file#anchor` must name a real heading (GitHub slug rules) in the target
# file.
# External (http/https/mailto) links are not checked.
#
# Also keeps the module maps honest: every src/<module> directory must
# appear in DESIGN.md's §2 inventory ("<module>/") and in
# docs/ARCHITECTURE.md's per-directory table ("src/<module>/") — adding a
# module without documenting it fails here, which is how the maps stopped
# silently drifting behind the source tree.
#
# Usage: scripts/check_docs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import glob, os, re, sys

files = sorted(["README.md", "EXPERIMENTS.md"] + glob.glob("docs/*.md"))
link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
heading_re = re.compile(r"^#{1,6}\s+(.*)$")

def slug(heading):
    # GitHub anchor slugs: lowercase, drop punctuation except hyphens and
    # underscores, spaces to hyphens. Strip inline-code backticks first.
    text = heading.strip().replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE).lower()
    return text.replace(" ", "-")

def anchors_of(path):
    out = set()
    in_code = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("```"):
                in_code = not in_code
                continue
            if in_code:
                continue
            m = heading_re.match(line)
            if m:
                out.add(slug(m.group(1)))
    return out

errors = []
for src in files:
    base = os.path.dirname(src)
    with open(src, encoding="utf-8") as f:
        text = f.read()
    # Ignore links inside fenced code blocks.
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for target in link_re.findall(text):
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, https:, mailto:
            continue
        path, _, anchor = target.partition("#")
        resolved = os.path.normpath(os.path.join(base, path)) if path else src
        if not os.path.exists(resolved):
            errors.append(f"{src}: link target does not exist: {target}")
            continue
        if anchor and resolved.endswith(".md"):
            if anchor not in anchors_of(resolved):
                errors.append(f"{src}: no heading for anchor: {target}")

# Module-map coverage: every source module must be documented in both
# inventories. DESIGN.md lists modules as "<name>/" inside the §2 code
# block; docs/ARCHITECTURE.md's table keys rows by "src/<name>/".
modules = sorted(
    d for d in os.listdir("src")
    if os.path.isdir(os.path.join("src", d))
    and any(f.endswith((".h", ".cc")) for f in os.listdir(os.path.join("src", d)))
)
with open("DESIGN.md", encoding="utf-8") as f:
    design = f.read()
with open("docs/ARCHITECTURE.md", encoding="utf-8") as f:
    architecture = f.read()
for mod in modules:
    if f"{mod}/" not in design:
        errors.append(f"DESIGN.md: module map is missing src/{mod} ('{mod}/')")
    if f"src/{mod}/" not in architecture:
        errors.append(
            f"docs/ARCHITECTURE.md: per-directory table is missing 'src/{mod}/'")

for e in errors:
    print(f"check_docs: {e}", file=sys.stderr)
if errors:
    sys.exit(1)
print(f"check_docs: {len(files)} files, all links resolve; "
      f"{len(modules)} src modules documented in both maps")
EOF
