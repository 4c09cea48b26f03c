# Checks one exhibit of acdc_repro against the behaviour ledger:
#
#   cmake -DREPRO=<acdc_repro> -DLEDGER=<repro.sha256> -DEXHIBIT=<name>
#         [-DOUTPUT=<file>] -P check_repro.cmake
#
# Runs `acdc_repro <name>`, hashes its stdout and compares the hash with the
# ledger's line for the exhibit (`sha256sum` format: "<sha256>  <name>").
# On a mismatch it prints both hashes and fails. OUTPUT, when set, receives
# the exhibit's stdout.
foreach(var REPRO LEDGER EXHIBIT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_repro: -D${var}=... is required")
  endif()
endforeach()

file(STRINGS "${LEDGER}" lines REGEX "^[0-9a-f]+  ${EXHIBIT}$")
list(LENGTH lines count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "check_repro: ${LEDGER} has ${count} lines for "
                      "'${EXHIBIT}', want 1")
endif()
string(REGEX REPLACE "  .*" "" want "${lines}")

execute_process(COMMAND "${REPRO}" "${EXHIBIT}"
                OUTPUT_VARIABLE out
                RESULT_VARIABLE status)
if(DEFINED OUTPUT)
  file(WRITE "${OUTPUT}" "${out}")
endif()
if(NOT status EQUAL 0)
  message(FATAL_ERROR "check_repro: acdc_repro ${EXHIBIT} exited with "
                      "${status}")
endif()

string(SHA256 got "${out}")
if(NOT got STREQUAL want)
  message(FATAL_ERROR "check_repro: ${EXHIBIT} differs from the ledger\n"
                      "  ledger: ${want}\n"
                      "  stdout: ${got}")
endif()
message(STATUS "${EXHIBIT}: ${got} matches the ledger")
