# Runs one CLI invocation that must be refused: a non-zero exit and an
# `error:` diagnostic on stderr matching EXPECT.
#   cmake -DRICHNOTE=<exe> -DCLI_ARGS="<args>" -DEXPECT=<regex> -P cli_expect_error.cmake
separate_arguments(args UNIX_COMMAND "${CLI_ARGS}")
execute_process(COMMAND ${RICHNOTE} ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "expected failure but succeeded: ${CLI_ARGS}\n${out}")
endif()
if(NOT err MATCHES "error: .*${EXPECT}")
  message(FATAL_ERROR "expected an error: diagnostic matching '${EXPECT}' from: "
                      "${CLI_ARGS}\n${err}")
endif()
