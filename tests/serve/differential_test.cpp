// The byte-identity contract, tested differentially.
//
// For every query type, the bytes a live server answers over the socket
// must equal the bytes `QueryEngine::one_shot` renders — which is what
// `fcm_tool` prints — cold cache and warm cache alike, and the whole
// equality must be invariant under FCM_THREADS. Warm responses come from
// the response memo, so this is exactly the "caches are perf only, never
// semantics" claim: if a cache ever leaked into rendered bytes, the
// cold/warm or cross-thread-count comparison here breaks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/query.h"
#include "serve/server.h"

namespace fcm::serve {
namespace {

struct Case {
  protocol::Opcode opcode;
  std::string payload;
};

// One representative per query type plus parameter variants; depend runs
// few trials so three thread settings stay fast.
const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {protocol::Opcode::kMapping, ""},
      {protocol::Opcode::kMapping, "hw=4 heuristic=h2 approach=b"},
      {protocol::Opcode::kInfluence, ""},
      {protocol::Opcode::kDepend, "trials=512"},
      {protocol::Opcode::kDepend, "hw=4 q=0.1 trials=512"},
      {protocol::Opcode::kReplan, "fail=0,2"},
      {protocol::Opcode::kReplan, "hw=4 fail=1 heuristic=h1"},
  };
  return kCases;
}

// Saves and restores FCM_THREADS around the test, so the battery leaves no
// trace in the process environment.
class DifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* current = std::getenv("FCM_THREADS");
    had_env_ = current != nullptr;
    if (had_env_) saved_ = current;
  }

  void TearDown() override {
    if (had_env_) {
      setenv("FCM_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("FCM_THREADS");
    }
  }

 private:
  bool had_env_ = false;
  std::string saved_;
};

TEST_F(DifferentialTest, SocketColdWarmAndOneShotAgreeAcrossThreadCounts) {
  // Rendered reference bytes per case, captured at the first thread
  // setting; every later (setting, path, cache state) must reproduce them.
  std::map<std::size_t, std::string> reference;

  for (const char* threads : {"1", "4", "8"}) {
    SCOPED_TRACE(std::string("FCM_THREADS=") + threads);
    // Set the env before the server exists: workers read it at query time
    // and setenv must not race their getenv.
    setenv("FCM_THREADS", threads, 1);

    QueryEngine engine;
    Server server(engine);
    server.start();
    Client client("127.0.0.1", server.port(), Duration::millis(30'000));

    for (std::size_t c = 0; c < cases().size(); ++c) {
      const Case& query = cases()[c];
      SCOPED_TRACE(protocol::opcode_name(query.opcode) + " '" +
                   query.payload + "'");

      const Client::Response cold =
          client.request(query.opcode, query.payload);
      ASSERT_EQ(cold.status, protocol::Status::kOk) << cold.payload;
      const Client::Response warm =
          client.request(query.opcode, query.payload);
      ASSERT_EQ(warm.status, protocol::Status::kOk);
      const QueryResult one_shot =
          QueryEngine::one_shot(query.opcode, query.payload);

      const auto it = reference.emplace(c, cold.payload).first;
      EXPECT_EQ(cold.payload, it->second);
      EXPECT_EQ(warm.payload, it->second);
      EXPECT_EQ(one_shot.text, it->second);
    }

    // The warm pass above must have come out of the response memo — one
    // hit per case — or the "warm" leg of the contract tested nothing.
    const QueryEngine::MemoStats memo = engine.memo_stats();
    EXPECT_EQ(memo.hits, cases().size());
    EXPECT_EQ(memo.misses, cases().size());
    server.stop();
  }
}

TEST(ServeMappingParams, QuotientIsAnUnknownParameter) {
  // Quotient maintenance has one mode, so the old quotient= switch is no
  // longer part of the wire: it is rejected like any other unknown
  // parameter, in process and over the socket, instead of planning.
  QueryEngine engine;
  try {
    (void)engine.run(protocol::Opcode::kMapping, "quotient=rebuild");
    FAIL() << "quotient=rebuild produced a plan";
  } catch (const QueryError& error) {
    EXPECT_STREQ(error.what(), "unknown parameter 'quotient'");
  }

  Server server(engine);
  server.start();
  Client client("127.0.0.1", server.port(), Duration::millis(30'000));
  const Client::Response response =
      client.request(protocol::Opcode::kMapping, "hw=4 quotient=rebuild");
  EXPECT_EQ(response.status, protocol::Status::kBadRequest);
  EXPECT_EQ(response.payload, "unknown parameter 'quotient'");
  server.stop();
}

}  // namespace
}  // namespace fcm::serve
