#include "common/flags.h"

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <vector>

namespace dievent {
namespace {

/// A command line with one option of each type, a positional and a rest
/// list. Holds pointers to its own members: never copy it.
struct Cli {
  Cli() {
    flags.Bool("list", &list, "list things");
    flags.Int("threads", &threads, 1, 256, "worker threads");
    flags.Double("coverage", &coverage, 0, 1, "coverage\nthreshold");
    flags.String("out", &out, "DIR", "output directory");
    flags.Positional("dir", &dir);
    flags.Rest("query", &words);
  }
  Cli(const Cli&) = delete;
  Cli& operator=(const Cli&) = delete;

  Status Parse(std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    return flags.Parse(static_cast<int>(args.size()), args.data());
  }
  void ParseOrExit(std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    flags.ParseOrExit(static_cast<int>(args.size()), args.data());
  }

  bool list = false;
  int threads = 0;
  double coverage = 0.5;
  std::string out;
  std::string dir;
  std::vector<std::string> words;
  FlagParser flags{"tool", "Does things.\nSecond line."};
};

TEST(Flags, SpaceAndEqualsSpellingsAreTheSame) {
  Cli spaced;
  ASSERT_TRUE(spaced.Parse({"--threads", "4", "--out", "x", "d"}).ok());
  Cli joined;
  ASSERT_TRUE(joined.Parse({"--threads=4", "--out=x", "d"}).ok());
  for (const Cli* cli : {&spaced, &joined}) {
    EXPECT_EQ(cli->threads, 4);
    EXPECT_EQ(cli->out, "x");
    EXPECT_EQ(cli->dir, "d");
  }
  Cli empty;
  ASSERT_TRUE(empty.Parse({"--out=", "d"}).ok());
  EXPECT_EQ(empty.out, "");
}

TEST(Flags, AbsentOptionsKeepTheirDefaults) {
  Cli cli;
  ASSERT_TRUE(cli.Parse({"d"}).ok());
  EXPECT_FALSE(cli.list);
  EXPECT_EQ(cli.threads, 0);
  EXPECT_EQ(cli.coverage, 0.5);
  EXPECT_TRUE(cli.words.empty());
}

TEST(Flags, IntRangeIsInclusive) {
  for (const char* ok : {"1", "256"}) {
    Cli cli;
    EXPECT_TRUE(cli.Parse({"--threads", ok, "d"}).ok()) << ok;
  }
  for (const char* bad : {"0", "257", "-1", "4294967297"}) {
    Cli cli;
    Status s = cli.Parse({"--threads", bad, "d"});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(s.message(), std::string("bad value for --threads: '") + bad +
                               "', want N in [1, 256]");
    EXPECT_EQ(cli.threads, 0) << "a rejected value is never stored";
  }
}

TEST(Flags, MalformedIntegersAreRejected) {
  for (const char* bad : {"", "abc", "4x", "1.5", "1e2", " 4", "+4", "nan",
                          "99999999999999999999"}) {
    Cli cli;
    Status s = cli.Parse({"--threads", bad, "d"});
    EXPECT_EQ(s.message(), std::string("bad value for --threads: '") + bad +
                               "', want N in [1, 256]");
  }
}

TEST(Flags, DoubleRangeIsInclusiveAndFinite) {
  for (const char* ok : {"0", "1", "0.25", "1e-3"}) {
    Cli cli;
    EXPECT_TRUE(cli.Parse({"--coverage", ok, "d"}).ok()) << ok;
  }
  Cli edge;
  ASSERT_TRUE(edge.Parse({"--coverage=1", "d"}).ok());
  EXPECT_EQ(edge.coverage, 1.0);
  for (const char* bad :
       {"-1", "2", "1.0000001", "nan", "inf", "-inf", "1e400", "0.5x", ""}) {
    Cli cli;
    Status s = cli.Parse({"--coverage", bad, "d"});
    EXPECT_EQ(s.message(), std::string("bad value for --coverage: '") + bad +
                               "', want X in [0, 1]");
    EXPECT_EQ(cli.coverage, 0.5);
  }
}

TEST(Flags, WideRangePrintsBothBounds) {
  int n = 7;
  FlagParser flags("tool", "");
  flags.Int("n", &n, 0, INT_MAX, "count");
  const char* argv[] = {"tool", "--n", "-1"};
  EXPECT_EQ(flags.Parse(3, argv).message(),
            "bad value for --n: '-1', want N in [0, 2147483647]");
  EXPECT_NE(flags.Usage().find("  --n N   count; N in [0, 2147483647]\n"),
            std::string::npos)
      << flags.Usage();
  const char* max[] = {"tool", "--n", "2147483647"};
  ASSERT_TRUE(flags.Parse(3, max).ok());
  EXPECT_EQ(n, INT_MAX);
}

TEST(Flags, MissingValueIsAUsageError) {
  Cli cli;
  EXPECT_EQ(cli.Parse({"--out"}).message(), "bad value for --out: missing");
  Cli numeric;
  EXPECT_EQ(numeric.Parse({"--list", "--threads"}).message(),
            "bad value for --threads: missing");
}

TEST(Flags, UnknownOptionIsAUsageError) {
  for (const char* arg : {"--bogus", "--bogus=1", "-x", "--"}) {
    Cli cli;
    Status s = cli.Parse({arg, "d"});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_EQ(s.message().rfind("unknown option '", 0), 0u) << s.message();
  }
  Cli cli;
  EXPECT_EQ(cli.Parse({"--bogus=1", "d"}).message(),
            "unknown option '--bogus'");
}

TEST(Flags, BoolOptionsTakeNoValue) {
  Cli set;
  ASSERT_TRUE(set.Parse({"--list", "d"}).ok());
  EXPECT_TRUE(set.list);
  EXPECT_EQ(set.dir, "d") << "a bool option never consumes the next word";
  Cli valued;
  EXPECT_EQ(valued.Parse({"--list=yes", "d"}).message(),
            "bad value for --list: 'yes', want no value");
  EXPECT_FALSE(valued.list);
}

TEST(Flags, PositionalsAreCounted) {
  Cli none;
  EXPECT_EQ(none.Parse({"--list"}).message(), "missing <dir>");

  std::string a;
  std::string b = "default";
  FlagParser flags("tool", "");
  flags.Positional("a", &a);
  flags.Positional("b", &b, /*required=*/false);
  const char* one[] = {"tool", "x"};
  ASSERT_TRUE(flags.Parse(2, one).ok());
  EXPECT_EQ(a, "x");
  EXPECT_EQ(b, "default");
  const char* two[] = {"tool", "x", "-"};
  ASSERT_TRUE(flags.Parse(3, two).ok());
  EXPECT_EQ(b, "-") << "a lone '-' is a positional, not an option";
  const char* three[] = {"tool", "x", "y", "z"};
  EXPECT_EQ(flags.Parse(4, three).message(), "unexpected argument 'z'");
}

TEST(Flags, RestTakesEveryWordAfterThePositionals) {
  Cli cli;
  ASSERT_TRUE(cli.Parse({"--list", "d", "events", ":", "--threads", "-1",
                         "--help"})
                  .ok());
  EXPECT_TRUE(cli.list);
  EXPECT_EQ(cli.dir, "d");
  EXPECT_EQ(cli.words, (std::vector<std::string>{"events", ":", "--threads",
                                                 "-1", "--help"}));
  EXPECT_EQ(cli.threads, 0);
  // "--help" in the rest list is a query word: ParseOrExit returns.
  Cli().ParseOrExit({"d", "--help"});
}

TEST(Flags, HelpListsEveryDeclaredOption) {
  // Help stops parsing: the unknown option after it is never seen.
  for (const char* help : {"--help", "-h"}) {
    EXPECT_TRUE(Cli().Parse({"--threads", "4", help, "--bogus"}).ok());
    EXPECT_EXIT(Cli().ParseOrExit({help, "--bogus"}),
                testing::ExitedWithCode(0), "");
  }
  const std::string usage = Cli().flags.Usage();
  EXPECT_EQ(usage,
            "usage: tool [options] <dir> [query...]\n"
            "  Does things.\n"
            "  Second line.\n"
            "options:\n"
            "  --list        list things\n"
            "  --threads N   worker threads; N in [1, 256]\n"
            "  --coverage X  coverage\n"
            "                threshold; X in [0, 1]\n"
            "  --out DIR     output directory\n"
            "  --help        print this help and exit\n");
}

TEST(Flags, ErrorReportsAFailedRunUnderTheProgramName) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(Cli().flags.Error(Status::NotFound("no store")), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "tool: NotFound: no store\n");
}

TEST(Flags, ParseOrExitExitsTwoOnAUsageError) {
  EXPECT_EXIT(Cli().ParseOrExit({"--threads", "257", "d"}),
              testing::ExitedWithCode(2),
              "tool: bad value for --threads: '257', want N in \\[1, 256\\]\n"
              "usage: tool");
  EXPECT_EXIT(Cli().ParseOrExit({"--help"}), testing::ExitedWithCode(0), "");
  EXPECT_EXIT(Cli().flags.Fail("--a needs --b"), testing::ExitedWithCode(2),
              "tool: --a needs --b\nusage: tool");
}

}  // namespace
}  // namespace dievent
