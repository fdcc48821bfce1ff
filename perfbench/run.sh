#!/usr/bin/env bash
# Runs one workload of the end-to-end benchmark:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# The first run in a checkout compiles the graph system (src/main/scala)
# and the benchmark code with sbt, offline, into .bench_build/; later
# runs reuse that build while the sources are unchanged. Build output goes
# to standard error, so the last line of standard output is the result.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$bench")"
build="$repo/.bench_build"
out="$build/perfbench-target"

if [ ! -d "$repo/src/main/scala/repro" ]; then
  echo "perfbench: the graph system's sources ($repo/src/main/scala/repro) are missing" >&2
  exit 2
fi
: "${SPARK_HOME:?perfbench: SPARK_HOME must point at a Spark 3 binary distribution}"

stamp="$(cd "$repo" && find perfbench/build.sbt perfbench/project/build.properties \
  perfbench/src/main src/main/scala -type f | LC_ALL=C sort | xargs cat | sha1sum)"
if [ ! -f "$out/classpath.txt" ] || [ "$(cat "$out/stamp" 2>/dev/null)" != "$stamp" ]; then
  rm -f "$out/classpath.txt"
  # Offline: every dependency must already be in the local caches.
  sbt_opts="${SBT_OPTS:-}"
  if [[ "$sbt_opts" != *sbt.repository.config* && -f "$HOME/.sbt/repositories" ]]; then
    sbt_opts="$sbt_opts -Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories"
  fi
  (cd "$bench" && COURSIER_MODE=offline SBT_OPTS="$sbt_opts -Dsbt.offline=true -Xmx1536m" \
    sbt --batch -Dsbt.log.noformat=true -Dsbt.global.base="$build/sbt-global" \
      compile writeClasspath) >&2
  printf '%s\n' "$stamp" > "$out/stamp"
fi

mkdir -p "$build/tmp" "$build/work" "$build/spark-local"
export SPARK_LOCAL_DIRS="$build/spark-local"
# A fixed heap (the main build defaults to 48 GB); Spark's JDK 17 opens.
exec java -Xms2g -Xmx2g -XX:-UsePerfData \
  -Djava.io.tmpdir="$build/tmp" -Dperfbench.work="$build/work" \
  --add-opens=java.base/java.lang=ALL-UNNAMED \
  --add-opens=java.base/java.lang.invoke=ALL-UNNAMED \
  --add-opens=java.base/java.lang.reflect=ALL-UNNAMED \
  --add-opens=java.base/java.io=ALL-UNNAMED \
  --add-opens=java.base/java.net=ALL-UNNAMED \
  --add-opens=java.base/java.nio=ALL-UNNAMED \
  --add-opens=java.base/java.util=ALL-UNNAMED \
  --add-opens=java.base/java.util.concurrent=ALL-UNNAMED \
  --add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED \
  --add-opens=java.base/jdk.internal.ref=ALL-UNNAMED \
  --add-opens=java.base/sun.nio.ch=ALL-UNNAMED \
  --add-opens=java.base/sun.nio.cs=ALL-UNNAMED \
  --add-opens=java.base/sun.security.action=ALL-UNNAMED \
  --add-opens=java.base/sun.util.calendar=ALL-UNNAMED \
  -Djdk.reflect.useDirectMethodHandleAccessor=false \
  -cp "$(cat "$out/classpath.txt")" perfbench.Main "$@"
