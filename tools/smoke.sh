# Daemon start / wait / stop for the CI smoke jobs.  Source it from a
# bash step (`. tools/smoke.sh`), then:
#
#   smoke_start PIDFILE LOG CMD [ARG...]
#       runs CMD in the background with stderr to LOG and its pid in
#       PIDFILE (prefix CMD with `env VAR=VALUE` to set its environment).
#   smoke_wait SOCKET LOG
#       waits up to 10 s for the unix socket SOCKET; on timeout it prints
#       LOG and fails, so a daemon that never came up fails this step.
#   smoke_stop SIGNAL PIDFILE...
#       sends SIGNAL to each daemon and reaps it: `wait` when this shell
#       started it, else polls up to 10 s until it is gone.  The daemon's
#       exit status is ignored; a daemon that is already gone fails the
#       step, as a bare `kill` would.

smoke_start() {
  local pidfile=$1 log=$2
  shift 2
  "$@" 2> "$log" &
  echo $! > "$pidfile"
}

smoke_wait() {
  local socket=$1 log=$2
  for _ in $(seq 100); do
    [ -S "$socket" ] && return 0
    sleep 0.1
  done
  echo "smoke: no socket at $socket after 10 s; $log follows" >&2
  cat "$log" >&2
  return 1
}

smoke_stop() {
  local signal=$1 pidfile pid
  shift
  for pidfile in "$@"; do
    pid=$(cat "$pidfile")
    kill "-$signal" "$pid" || return 1
    wait "$pid" 2> /dev/null || true
    for _ in $(seq 100); do
      kill -0 "$pid" 2> /dev/null || break
      sleep 0.1
    done
  done
}
