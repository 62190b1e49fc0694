# Drives dievent_fleet with --corpus in WORK (emptied first) and checks
# the exit codes and the recorded shard paths:
#   - a --corpus path that is a regular file exits 2 and says so;
#   - a completed tenant that cannot be registered exits 1 (here the
#     corpus's MANIFEST.tmp is a directory, so the manifest write fails);
#   - a corpus root given with a trailing slash records the shard
#     root-relative, as dir=stores/alpha.
#
#   cmake -DFLEET=<dievent_fleet> -DQUERY=<dievent_query> \
#     -DSCENE=<scene.cfg> -DWORK=<dir> -P fleet_corpus_exit_codes.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/scen")
configure_file("${SCENE}" "${WORK}/scen/alpha.scene" COPYONLY)

function(run_fleet want_rc want_text)
  execute_process(
    COMMAND "${FLEET}" ${ARGN} "${WORK}/scen"
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(FIND "${out}${err}" "${want_text}" found)
  if(NOT rc EQUAL want_rc OR found EQUAL -1)
    message(FATAL_ERROR "${ARGN}: want exit ${want_rc} and '${want_text}', "
      "got exit ${rc}:\n${out}${err}")
  endif()
endfunction()

file(TOUCH "${WORK}/afile")
run_fleet(2 "afile: not a directory" --out out --corpus afile)

file(MAKE_DIRECTORY "${WORK}/jammed/MANIFEST.tmp")
run_fleet(1 "corpus 0 registered, 1 failed"
  --out jammed/stores --corpus jammed)

run_fleet(0 "corpus 1 registered, 0 failed"
  --out corpus/stores --corpus corpus/)
execute_process(
  COMMAND "${QUERY}" --list "${WORK}/corpus"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(FIND "${out}" " dir=stores/alpha " found)
if(NOT rc EQUAL 0 OR found EQUAL -1)
  message(FATAL_ERROR "--corpus corpus/: want dir=stores/alpha, got exit "
    "${rc}:\n${out}${err}")
endif()
