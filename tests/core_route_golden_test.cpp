// Route goldens: a SHA-256 over every route the query path returns, for
// all six shortcut modes x {NdDisco, Disco} x {RouteFirst, RouteLater} on
// three fixed-seed configurations, and for the two phases of S4, SPF and
// VRR on two of them. Any change to a path, a length's bits, the contact
// or the fallback flag changes a digest, so a rewrite of the query code or
// of the shortest-path searches under it that keeps these digests returns
// exactly the same routes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "api/registry.h"
#include "baselines/s4.h"
#include "core/disco.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/sha256.h"

namespace disco {
namespace {

struct Golden {
  const char* scheme;
  const char* phase;
  Shortcut mode;
  const char* digest;
};

// Sampled pairs: a 32 x 32 grid of sources and destinations, diagonal
// (s == t) included.
std::vector<std::pair<NodeId, NodeId>> Pairs(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId i = 0; i < 32; ++i) {
    for (NodeId j = 0; j < 32; ++j) {
      out.emplace_back((i * 37) % n, (i * 37 + j * 101) % n);
    }
  }
  return out;
}

template <class T>
void Put(Sha256* h, const T& v) {
  h->Update(&v, sizeof v);
}

std::string Digest(const std::vector<std::pair<NodeId, NodeId>>& pairs,
                   const std::function<Route(NodeId, NodeId)>& route,
                   int* fallbacks) {
  Sha256 h;
  for (const auto& [s, t] : pairs) {
    const Route r = route(s, t);
    Put(&h, s);
    Put(&h, t);
    Put(&h, static_cast<std::uint64_t>(r.path.size()));
    for (const NodeId v : r.path) Put(&h, v);
    std::uint64_t bits;
    std::memcpy(&bits, &r.length, sizeof bits);
    Put(&h, bits);
    Put(&h, r.contact);
    Put(&h, static_cast<std::uint8_t>(r.via_fallback));
    *fallbacks += r.via_fallback ? 1 : 0;
  }
  return Sha256HexOf(h.Finalize());
}

// Checks all 24 digests of one configuration. Returns the number of
// fallback routes seen, so a configuration can prove it exercises them.
int CheckGoldens(const Graph& g, Disco& disco,
                 const std::vector<Golden>& goldens) {
  disco.nd().PrewarmLandmarkTrees();
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  disco.nd().PrewarmVicinities(all);
  const auto pairs = Pairs(g.num_nodes());
  int fallbacks = 0;
  EXPECT_EQ(goldens.size(), 24u);
  for (const Golden& gold : goldens) {
    const std::string scheme = gold.scheme;
    const bool first = std::string(gold.phase) == "first";
    const Shortcut mode = gold.mode;
    std::function<Route(NodeId, NodeId)> route;
    if (scheme == "disco") {
      route = [&](NodeId s, NodeId t) {
        return first ? disco.RouteFirst(s, t, mode)
                     : disco.RouteLater(s, t, mode);
      };
    } else {
      route = [&](NodeId s, NodeId t) {
        return first ? disco.nd().RouteFirst(s, t, mode)
                     : disco.nd().RouteLater(s, t, mode);
      };
    }
    EXPECT_EQ(Digest(pairs, route, &fallbacks), gold.digest)
        << scheme << " " << gold.phase << " " << ShortcutName(mode);
  }
  return fallbacks;
}

constexpr Shortcut kNone = Shortcut::kNone;
constexpr Shortcut kToDest = Shortcut::kToDestination;
constexpr Shortcut kShorter = Shortcut::kShorterOfForwardReverse;
constexpr Shortcut kNpk = Shortcut::kNoPathKnowledge;
constexpr Shortcut kUds = Shortcut::kUpDownStream;
constexpr Shortcut kPk = Shortcut::kPathKnowledge;

TEST(RouteGolden, ConnectedGnm1024) {
  const Graph g = ConnectedGnm(1024, 4096, 5);
  Params p;
  p.seed = 5;
  Disco disco(g, p);
  CheckGoldens(g, disco, {
      {"nddisco", "first", kNone,
       "6dd2c8c755d4fab8a8f999eee46494718393d097b382b0829dcd37c8f09958e5"},
      {"nddisco", "first", kToDest,
       "cc475c20227cd82542b1767a48695606204bbbb5dfb12d2ce3e93efc316de903"},
      {"nddisco", "first", kShorter,
       "ca2aff0fb5174fd82e51ce7857a6dbf35b73c2b6181efa59506eb7a329ff0aa9"},
      {"nddisco", "first", kNpk,
       "97c8c80a9d766ac59b263539bbed33793028c181d9d17436e488c13968dd90e6"},
      {"nddisco", "first", kUds,
       "6d48caf57c0688256330fe54eddf35ee362f673c2e9b605057e80ed81b47fcb0"},
      {"nddisco", "first", kPk,
       "c5aec3d171e10e3bcb0ff69761bf2c75b9a0907962cf14f495c0d6a1f1825b27"},
      {"nddisco", "later", kNone,
       "436c1848e9c2c81f70b91835583692a24a1863bfa3586a3c1dd310d009b654de"},
      {"nddisco", "later", kToDest,
       "5e7d2f0049712aeb793c81c4b0f8664151f193d1f079d1d56e42dabce5c43bf1"},
      {"nddisco", "later", kShorter,
       "ca2aff0fb5174fd82e51ce7857a6dbf35b73c2b6181efa59506eb7a329ff0aa9"},
      {"nddisco", "later", kNpk,
       "7d7219709d9372da124cc3b2de73c57cebd23db8fc89d37bc47c408d995f207c"},
      {"nddisco", "later", kUds,
       "bd66f933b7a4ac48b6a1a759e33442700c116d0903e2596f974af5253937a2bb"},
      {"nddisco", "later", kPk,
       "00b2bd63eb0ac008c3c20988f1329f06f112a1c8f0b93f6f94ba70847f3ca8cd"},
      {"disco", "first", kNone,
       "2348629f67021fabce7d0a9fbacbc4a89dc4bc350adba7c1cbdc547c28654282"},
      {"disco", "first", kToDest,
       "2991ac69369e4f6c808aa382b547ab9ef6b7b8cd5b42df2e4e74ea0340e30212"},
      {"disco", "first", kShorter,
       "b5875ddaf31d72ca908495e77d324912e652e2ea62201db0be7074a4bb2ea085"},
      {"disco", "first", kNpk,
       "9e7928dbbec8a6e7e1b4a9800ba482f6141f9c3dfd3d8bbf1d29ab4de8b7553a"},
      {"disco", "first", kUds,
       "34475964f0d886649b766989bb238a54944c3fd5d5dbae591704ff2c1c64c3b5"},
      {"disco", "first", kPk,
       "ee02427a29b964d95fb827baeb63f984e4a0cb13e00bbdfd1a7c15e9b3539e31"},
      {"disco", "later", kNone,
       "045e1a3eed48955b13df37391ea4c968a34f343011230188911b8002c2fb31ed"},
      {"disco", "later", kToDest,
       "d1ec28a8bcab95b3169a5bcf0351d8338b6e7850d1763172378b89a74ae1a47a"},
      {"disco", "later", kShorter,
       "87695da7976fcab02cd2f49a6567479e5e2fb05fc16fab617c2bb2e05e21a806"},
      {"disco", "later", kNpk,
       "012b4e705d5f6ff8eadf40c6ca2feadf6879a3ee20fbfcfa0d0b70c3a151809c"},
      {"disco", "later", kUds,
       "8e55b4da50e58deb9b5c735987e14c5106b65dd67f6b6cd4af4917e03402abb5"},
      {"disco", "later", kPk,
       "24f932bab4b75ee68557750c1b002423e8e59767e5f6008ac18d3603c175200a"},
  });
}

TEST(RouteGolden, WeightedConnectedGeometric512) {
  const Graph g = ConnectedGeometric(512, 8.0, 7);
  Params p;
  p.seed = 7;
  Disco disco(g, p);
  CheckGoldens(g, disco, {
      {"nddisco", "first", kNone,
       "3e898dd0dca05fbbbd380eca2a3e5b404630027e2a9eb201065278422948dc28"},
      {"nddisco", "first", kToDest,
       "fac0ecd6bbbec0a00a7995ebc1ecde5dbf5be66c30ae1a7318f0e2530c656031"},
      {"nddisco", "first", kShorter,
       "20e397d329095925c9de906c9dd5274b52a4ff8eca758203880f5fe8bc42d73e"},
      {"nddisco", "first", kNpk,
       "4f225eea19420bd722764913f1eb53c2ad034d06d39f973f39ea867e6fa66db9"},
      {"nddisco", "first", kUds,
       "c3b9f285ed0ed6fd905bbfefe52db8e3f9b67c7427f4d82c68fc55ea64b7e41f"},
      {"nddisco", "first", kPk,
       "b41e9ccfbde11466eb2e197ea3bdcf18034ed7e712dca757456ad4bd8f1bf03f"},
      {"nddisco", "later", kNone,
       "7913f296a690e26977b61f08256e99a31a92a317f7d980ff415270d910124b6a"},
      {"nddisco", "later", kToDest,
       "439bf9a0c720e460d4c414e1fb7a80628823f84381ff7db2be77b7643fb025bb"},
      {"nddisco", "later", kShorter,
       "20e397d329095925c9de906c9dd5274b52a4ff8eca758203880f5fe8bc42d73e"},
      {"nddisco", "later", kNpk,
       "4f225eea19420bd722764913f1eb53c2ad034d06d39f973f39ea867e6fa66db9"},
      {"nddisco", "later", kUds,
       "a1ac438e5bce28c9ac217c8e6c0a2ddcb8ed021eae01182bf0d728eff543f273"},
      {"nddisco", "later", kPk,
       "b41e9ccfbde11466eb2e197ea3bdcf18034ed7e712dca757456ad4bd8f1bf03f"},
      {"disco", "first", kNone,
       "d2cd0573f04b2773c3ff1f03aaee8f51af6e7f75e38f4e29265e48410fdab403"},
      {"disco", "first", kToDest,
       "e9b0d161a64a9ccf68773a44d7a593582d76270250e70c196aa3a43a7120059d"},
      {"disco", "first", kShorter,
       "55179678228b5cb1927e7589f1b7fe43ce0f6f084409559af7b493d2f14fa4bd"},
      {"disco", "first", kNpk,
       "cc64ba0c3f577845d130b63ee43b20a066f0b7ae9353e7ea7819edbf5e3dad8f"},
      {"disco", "first", kUds,
       "1127d59f361b6260957ba908e47b7242e6d14647d47a85e4b061a3b497486b03"},
      {"disco", "first", kPk,
       "e66119f60296eb6b3aa394f7de05f95dcfe4e77e75ceacc6fac3ce8244167382"},
      {"disco", "later", kNone,
       "2b8b33b847a1617f6175540b58bcac8b72f3e5a09458906be60a566bb593ee98"},
      {"disco", "later", kToDest,
       "184ac2906a5fed79d93a9f71b9a9859ac3dc0e5305a80062b96f95e6fcb3bd95"},
      {"disco", "later", kShorter,
       "816d38e713c5ea03b852b542ce1fc68f15dcd978dc116d18c2172f9722f8d032"},
      {"disco", "later", kNpk,
       "23ca0342248213d9d5fb2fb5f43942e59f4d0de96325f785f8998aaf1262a959"},
      {"disco", "later", kUds,
       "72cac81c30e4db16ac4e4cac0beefdd8efda1bfd780677f52e3cdd02869b8dbe"},
      {"disco", "later", kPk,
       "edf6a97b0033eee37cd495951b5c35150be39684d08ae0ceab9f726710172a71"},
  });
}

// The resolution fallback (§4.4), provoked as the nerror bench does: every
// node's estimate of n is off by up to ±60%, and four extra group bits
// shrink the sloppy groups so that some vicinities hold no member.
TEST(RouteGolden, ResolutionFallbackGnm1024) {
  const Graph g = ConnectedGnm(1024, 4096, 11);
  const NodeId n = g.num_nodes();
  std::vector<double> estimates(n);
  Rng rng(11 * 7919 + 17);
  for (NodeId v = 0; v < n; ++v) {
    estimates[v] = n * (1.0 + 0.6 * 2.0 * (rng.NextDouble() - 0.5));
  }
  Params p;
  p.seed = 11;
  p.group_bits_offset = 4;
  Disco disco(g, p, NameTable::Default(n), estimates);
  const int fallbacks = CheckGoldens(g, disco, {
      {"nddisco", "first", kNone,
       "0bc728c896adf61cda13f0ab03a09b86fc31d3f37b58637ba945444d675968fd"},
      {"nddisco", "first", kToDest,
       "65996dc726c341e245f0f1efab1dbbfc1162ef1173e820b40740f4c41f523705"},
      {"nddisco", "first", kShorter,
       "f5aaa6f91e0aa904f09b6f0c04ab0548d0690d6e869907af28b321d1d19fb737"},
      {"nddisco", "first", kNpk,
       "7d49263c0bd7cd4dc229a37734aa0a705800e31ba8ff8cd30b2b55fd78b8fc9d"},
      {"nddisco", "first", kUds,
       "08a52fbaa792f685caaab8ebe2f3eef58b3beedbc46cf450436d8371fce05aea"},
      {"nddisco", "first", kPk,
       "e9d54207dafcbd1dc01a02215f925f933daff7bb7f98ca7d12e21f7ab0339fe7"},
      {"nddisco", "later", kNone,
       "69edb6a729a8783b51c097b6ddc18c4916ffdccc089767838f7e140e5776190b"},
      {"nddisco", "later", kToDest,
       "5c59ac57a2af7cf8274812276be6e18c9504e0401815b1e07c314ef9fd9755d2"},
      {"nddisco", "later", kShorter,
       "9a8ad604bb433bf31d98f6af6e400393c2ed294c5c2c94bb0af3e22c1a4f51cd"},
      {"nddisco", "later", kNpk,
       "4deaf5f23e6b7d7158bddc03b8f67f16f46634e737dbed0cbb48914a806922bd"},
      {"nddisco", "later", kUds,
       "632097cffd56910b19391814361cdc1b30c0fbf1900ffab073b343c3ff182eb2"},
      {"nddisco", "later", kPk,
       "33dbbe4a9b0a76e926b6e5fc0b526324e40f8fb3c88c5b7fe4418f6360459f6a"},
      {"disco", "first", kNone,
       "9d9bdffacedb29d818e3173900b5a2c93275e3a315fcaabc15d7dfa07ff085ef"},
      {"disco", "first", kToDest,
       "a772cec999128e211af4bb4e6150e1352801d9135107e0ae1119df5071c0233d"},
      {"disco", "first", kShorter,
       "ca4570f2bfe6d8d6914c59cc3a56270fc1b8ca8602acbd84a77396fe4aa54ad1"},
      {"disco", "first", kNpk,
       "651feaa794a56e711d3a3340001b2e598578aecd1f0823e7fb79a9116e461411"},
      {"disco", "first", kUds,
       "d89debdc0df8820835e01da59abde8baaaf6459ee13fa0d1d218cbc8dc28e2df"},
      {"disco", "first", kPk,
       "7f8afdd4d16718c9fa95b42c26c1bae8271b375ac0bb1335842aa6724772f29e"},
      {"disco", "later", kNone,
       "b2ca5e369dca8283bf844f4be6439cadea79a28dd9e48e3992ed8812c37df14e"},
      {"disco", "later", kToDest,
       "4c130526b8edafa09ad29345947b033032280b75f5feaa2b50429a782950de3f"},
      {"disco", "later", kShorter,
       "f61d6f56cef1dc85feaac2e7c01e504fc6ec6128c6463a1155e702d3f466c59a"},
      {"disco", "later", kNpk,
       "51dd85007260791bce6ebb114ce111497ef41378fe2eac97fad8418a4b1cb0c2"},
      {"disco", "later", kUds,
       "3df426f045f965b1f0dedbd817f08d33cc00ee7b95018df1011e0e477240b1ec"},
      {"disco", "later", kPk,
       "6113c47f4296057588d24102842c2a4257c7795fca7dae646f85081307543b14"},
  });
  EXPECT_GT(fallbacks, 0);
}

// S4's RouteFirst and RouteLater digests on a connected graph.
void CheckS4Goldens(const Graph& g, const Params& p, const char* first,
                    const char* later) {
  S4 s4(g, p);
  s4.PrewarmLandmarkTrees();
  const auto pairs = Pairs(g.num_nodes());
  int fallbacks = 0;
  EXPECT_EQ(Digest(pairs,
                   [&](NodeId s, NodeId t) { return s4.RouteFirst(s, t); },
                   &fallbacks),
            first);
  EXPECT_EQ(Digest(pairs,
                   [&](NodeId s, NodeId t) { return s4.RouteLater(s, t); },
                   &fallbacks),
            later);
}

TEST(RouteGolden, S4ConnectedGnm1024) {
  Params p;
  p.seed = 5;
  CheckS4Goldens(
      ConnectedGnm(1024, 4096, 5), p,
      "03095d63a0ec08d69d6661c1cecb0c2fb9ca7d7160c2581f805fc7ae1248d38f",
      "7b0babfc16efd416b4809e105b72d67f223b67e59b951d03d0471e67577abfc7");
}

TEST(RouteGolden, S4WeightedConnectedGeometric512) {
  Params p;
  p.seed = 7;
  CheckS4Goldens(
      ConnectedGeometric(512, 8.0, 7), p,
      "4eedc7ac650726189177ecfb8aa2a54989b5417e6f16d8ff4acc8c239e4cac35",
      "22f990b68cc9959ee3aabc146b8b9b7866766786f26cbedce38b66c4b96e58f7");
}

// A registered scheme's RouteFirst and RouteLater digests. SPF and VRR
// route every packet the same way, so their two digests are equal. SPF
// serves whole Dijkstra trees and VRR sets up its vset paths with
// Dijkstra, so these also pin Dijkstra's parent tie-break.
void CheckSchemeGoldens(const std::string& name, const Graph& g,
                        const Params& p, const char* first,
                        const char* later) {
  const auto scheme = api::MakeScheme(name, g, p);
  ASSERT_NE(scheme, nullptr) << name;
  const auto pairs = Pairs(g.num_nodes());
  int fallbacks = 0;
  EXPECT_EQ(Digest(pairs,
                   [&](NodeId s, NodeId t) {
                     return scheme->RouteFirst(s, t);
                   },
                   &fallbacks),
            first)
      << name << " first";
  EXPECT_EQ(Digest(pairs,
                   [&](NodeId s, NodeId t) {
                     return scheme->RouteLater(s, t);
                   },
                   &fallbacks),
            later)
      << name << " later";
}

TEST(RouteGolden, SpfConnectedGnm1024) {
  Params p;
  p.seed = 5;
  CheckSchemeGoldens(
      "spf", ConnectedGnm(1024, 4096, 5), p,
      "88140bb89477beaa298724b02c6904897b90862f18c78c2e5a35ff1f0fdd1ec3",
      "88140bb89477beaa298724b02c6904897b90862f18c78c2e5a35ff1f0fdd1ec3");
}

TEST(RouteGolden, SpfWeightedConnectedGeometric512) {
  Params p;
  p.seed = 7;
  CheckSchemeGoldens(
      "spf", ConnectedGeometric(512, 8.0, 7), p,
      "bb4dddbdfb374fadfaa4b52c3233e00b7cb29f0641d0bf89358e271e0ffc3173",
      "bb4dddbdfb374fadfaa4b52c3233e00b7cb29f0641d0bf89358e271e0ffc3173");
}

TEST(RouteGolden, VrrConnectedGnm1024) {
  Params p;
  p.seed = 5;
  CheckSchemeGoldens(
      "vrr", ConnectedGnm(1024, 4096, 5), p,
      "74a40f72eb32de1ea95fec2e664a0b81155216251c0bd6f04a5f2952eaf0218a",
      "74a40f72eb32de1ea95fec2e664a0b81155216251c0bd6f04a5f2952eaf0218a");
}

TEST(RouteGolden, VrrWeightedConnectedGeometric512) {
  Params p;
  p.seed = 7;
  CheckSchemeGoldens(
      "vrr", ConnectedGeometric(512, 8.0, 7), p,
      "d85bf57dddd05bc9d7c2e2da864e675ad8401de25c499e4956aa81f0f9335614",
      "d85bf57dddd05bc9d7c2e2da864e675ad8401de25c499e4956aa81f0f9335614");
}

}  // namespace
}  // namespace disco
