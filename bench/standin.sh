#!/usr/bin/env bash
# Stand-in simulator for the tbforge benchmark.
#
#   standin.sh compile DUT TB OUT | standin.sh run OUT | standin.sh coverage DUT TB
#
# Instead of simulating, it obeys a "// bench: key=value ..." directive on
# the first line of its input files: compile=fail fails the compile,
# crash=1 makes the run die without a verdict, fails= and total= shape the
# run log, cov=C/T sets the line coverage, and cs=, rs=, vs= are the
# seconds the compile, run and coverage steps take. Compile copies the
# directives into OUT, the "compiled unit" that run reads.
#
# Each invocation appends "<mode> <row> <self microseconds>" to the file
# named by $TBBENCH_SIMLOG, so the benchmark can count processes per row
# and subtract the stand-in's own time from the caller's.
start=${EPOCHREALTIME/[.,]/}
mode=$1
declare -A kv

markers() {
  local line word
  IFS= read -r line < "$1"
  [[ $line == "// bench: "* ]] || return 0
  for word in ${line#// bench: }; do
    kv[${word%%=*}]=${word#*=}
  done
}

pause() {
  [[ -n $1 && $1 != 0 ]] && sleep "$1"
}

status=0
case $mode in
  compile)
    markers "$2"
    markers "$3"
    pause "${kv[cs]}"
    if [[ ${kv[compile]} == fail ]]; then
      printf '%s:7: syntax error\n%s:7: error: malformed statement\nI give up.\n' "$3" "$3" >&2
      status=1
    else
      {
        printf '// bench:'
        for key in "${!kv[@]}"; do printf ' %s=%s' "$key" "${kv[$key]}"; done
        printf '\n'
      } > "$4"
    fi
    ;;
  run)
    markers "$2"
    pause "${kv[rs]}"
    if [[ ${kv[crash]} == 1 ]]; then
      printf 'stand-in: segmentation fault\n' >&2
      status=139
    else
      total=${kv[total]:-5}
      fails=${kv[fails]:-0}
      printf '===========TestCases===========\n'
      for ((i = 1; i <= total; i++)); do
        actual=$i
        ((i <= fails)) && actual=$((i + 1))
        printf 'Test Case %d. Expected out_0: %d\nTest Case %d. Actual out_0: %d\n' \
          "$i" "$i" "$i" "$actual"
      done
      printf '===========End===========\n'
      if ((fails == 0)); then
        printf 'Your Design Passed\n'
      else
        printf 'Test with %d failures\n' "$fails"
      fi
    fi
    ;;
  coverage)
    markers "$2"
    markers "$3"
    pause "${kv[vs]}"
    cov=${kv[cov]:-1/1}
    covered=${cov%/*}
    total=${cov#*/}
    p100=$(((2 * covered * 10000 + total) / (2 * total)))
    printf 'Line Coverage for Module : dut\nLine No.\tTotal\tCovered\tPercent\n'
    printf 'TOTAL\t\t%d\t%d\t%d.%02d\n' "$total" "$covered" $((p100 / 100)) $((p100 % 100))
    for ((i = 1; i <= total; i++)); do
      if ((i <= covered)); then
        printf '1/1     r_%d <= w_%d;\n' "$i" "$i"
      else
        printf '0/1 ==>    r_%d <= w_%d;\n' "$i" "$i"
      fi
    done
    ;;
  *)
    printf 'usage: standin.sh compile|run|coverage ...\n' >&2
    exit 2
    ;;
esac

end=${EPOCHREALTIME/[.,]/}
printf '%s %s %d\n' "$mode" "${kv[row]:--}" $((end - start)) >> "$TBBENCH_SIMLOG"
exit $status
