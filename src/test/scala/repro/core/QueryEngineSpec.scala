package repro.core

import repro.SparkSpec
import repro.saql.Parser
import TestEvents._

/** Engine semantics per anomaly model on hand-crafted streams. */
class QueryEngineSpec extends SparkSpec {

  // ------------------------------------------------------------ time-series

  private val smaQuery = Parser.parse(
    """proc p write ip i as evt #time(10 s)
      |state[3] ss { avg_amount := avg(evt.amount) } group by p
      |alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)
      |return p, ss[0].avg_amount, ss[1].avg_amount, ss[2].avg_amount""".stripMargin,
    "sma")

  test("time-series: steady traffic below threshold never alerts") {
    val evs = (0 until 60).map(i => net(0, i * 1000L, "app.exe", "1.1.1.1", 100))
    assert(QueryEngine.run(df(spark, evs), smaQuery).isEmpty)
  }

  test("time-series: spike above moving average and threshold alerts once") {
    val calm  = (0 until 30).map(i => net(0, i * 1000L, "app.exe", "1.1.1.1", 100))
    val spike = Seq(net(0, 31_000L, "app.exe", "1.1.1.1", 50_000))
    val alerts = QueryEngine.run(df(spark, calm ++ spike), smaQuery)
    assert(alerts.size == 1)
    val a = alerts.head
    assert(a.win == 3 && a.ts == 40_000L)
    assert(a.values("p") == "app.exe")
    assert(a.values("ss_avg_amount") == "50000")
    assert(a.values("ss1_avg_amount") == "100")
  }

  test("time-series: high but steady traffic is not a spike") {
    // avg stays 50k every window: ss[0] == (3*ss[0])/3, strict > fails after
    // the history fills up; only the first two windows (zero history) alert.
    val evs = (0 until 60).map(i => net(0, i * 1000L, "app.exe", "1.1.1.1", 50_000))
    val alerts = QueryEngine.run(df(spark, evs), smaQuery)
    assert(alerts.map(_.win).forall(_ < 2))
  }

  test("time-series: groups are independent (one spiking process alerts)") {
    val a = (0 until 60).map(i => net(0, i * 1000L, "a.exe", "1.1.1.1", 100))
    val b = (0 until 30).map(i => net(0, i * 1000L, "b.exe", "1.1.1.1", 100)) :+
      net(0, 35_000L, "b.exe", "1.1.1.1", 99_000)
    val alerts = QueryEngine.run(df(spark, a ++ b), smaQuery)
    assert(alerts.map(_.values("p")).distinct == Seq("b.exe"))
  }

  test("time-series: missing history windows count as zero (paper Query 2 shape)") {
    // One isolated burst with empty prior windows: avg > avg/3 holds.
    val evs = Seq(net(0, 100_000L, "burst.exe", "1.1.1.1", 20_000))
    val alerts = QueryEngine.run(df(spark, evs), smaQuery)
    assert(alerts.size == 1 && alerts.head.values("ss1_avg_amount") == "0")
  }

  test("time-series: a group missing from the previous window reads 0 for ss[1]") {
    val q = Parser.parse(
      """proc p write ip i as evt #time(10 s)
        |state[2] ss { amt := sum(evt.amount) } group by p
        |return p, ss[0].amt, ss[1].amt""".stripMargin, "prev")
    val evs = Seq(
      net(0, 1000L, "a.exe", "1.1.1.1", 100), net(0, 2000L, "b.exe", "1.1.1.1", 50), // win0: a, b
      net(0, 11_000L, "a.exe", "1.1.1.1", 300),                                        // win1: a
      net(0, 21_000L, "b.exe", "1.1.1.1", 70))                                         // win2: b
    val prev = QueryEngine.run(df(spark, evs), q)
      .map(a => (a.win, a.values("p")) -> a.values("ss1_amt")).toMap
    assert(prev == Map((0L, "a.exe") -> "0", (0L, "b.exe") -> "0",
                       (1L, "a.exe") -> "100", (2L, "b.exe") -> "0"))
  }

  // -------------------------------------------------------------- invariant

  private val invQuery = Parser.parse(
    """proc p1["%apache.exe"] start proc p2 as evt #time(10 s)
      |state ss { set_proc := set(p2.exe_name) } group by p1
      |invariant[3][offline] {
      |  a := empty_set
      |  a = a union ss.set_proc
      |}
      |alert |ss.set_proc diff a| > 0
      |return p1, ss.set_proc""".stripMargin, "inv")

  test("invariant: children seen in training never alert") {
    val evs = (0 until 10).flatMap(w => Seq(
      start(0, w * 10_000L + 1000, "apache.exe", "httpd-worker.exe"),
      start(0, w * 10_000L + 2000, "apache.exe", "php-cgi.exe")))
    assert(QueryEngine.run(df(spark, evs), invQuery).isEmpty)
  }

  test("invariant: unseen child after training alerts") {
    val train = (0 until 3).map(w =>
      start(0, w * 10_000L + 1000, "apache.exe", "httpd-worker.exe"))
    val attack = Seq(start(0, 50_000L, "apache.exe", "evil.exe"))
    val alerts = QueryEngine.run(df(spark, train ++ attack), invQuery)
    assert(alerts.size == 1)
    assert(alerts.head.values("ss_set_proc") == "{evil.exe}")
    assert(alerts.head.win == 5)
  }

  test("invariant: unseen child DURING training is absorbed, not alerted") {
    val evs = Seq(
      start(0, 1000L, "apache.exe", "httpd-worker.exe"),
      start(0, 11_000L, "apache.exe", "surprise.exe"), // window 1: training
      start(0, 41_000L, "apache.exe", "surprise.exe")) // window 4: learned
    assert(QueryEngine.run(df(spark, evs), invQuery).isEmpty)
  }

  test("invariant: training is anchored at the first stateful window") {
    // States first appear at window 10; training covers slots 10..12.
    val train = (10 until 13).map(w =>
      start(0, w * 10_000L + 1000, "apache.exe", "httpd-worker.exe"))
    val attack = Seq(start(0, 200_000L, "apache.exe", "evil.exe"))
    val alerts = QueryEngine.run(df(spark, train ++ attack), invQuery)
    assert(alerts.size == 1 && alerts.head.win == 20)
  }

  test("invariant: mixed window with old and new children alerts on the diff") {
    val train = (0 until 3).map(w =>
      start(0, w * 10_000L + 1000, "apache.exe", "httpd-worker.exe"))
    val attack = Seq(
      start(0, 50_000L, "apache.exe", "httpd-worker.exe"),
      start(0, 51_000L, "apache.exe", "evil.exe"))
    val alerts = QueryEngine.run(df(spark, train ++ attack), invQuery)
    assert(alerts.size == 1)
    // Return shows the full window set; the diff {evil.exe} triggered it.
    assert(alerts.head.values("ss_set_proc") == "{evil.exe,httpd-worker.exe}")
  }

  // ---------------------------------------------------------------- outlier

  private val outlierQuery = Parser.parse(
    """proc p["%db.exe"] read || write ip i as evt #time(10 s)
      |state ss { amt := sum(evt.amount) } group by i.dstip
      |cluster(points=all(ss.amt), distance="ed", method="DBSCAN(1000, 3)")
      |alert cluster.outlier && ss.amt > 100000
      |return i.dstip, ss.amt""".stripMargin, "outlier")

  test("outlier: clustered peers never alert") {
    val evs = (0 until 8).map(i => net(0, 1000L + i, "db.exe", s"10.0.1.$i", 5000))
    assert(QueryEngine.run(df(spark, evs), outlierQuery).isEmpty)
  }

  test("outlier: isolated heavy destination alerts") {
    val peers = (0 until 8).map(i => net(0, 1000L + i, "db.exe", s"10.0.1.$i", 5000))
    val exfil = Seq(net(0, 2000L, "db.exe", "6.6.6.6", 500_000))
    val alerts = QueryEngine.run(df(spark, peers ++ exfil), outlierQuery)
    assert(alerts.size == 1)
    assert(alerts.head.values("i_dstip") == "6.6.6.6")
    assert(alerts.head.values("ss_amt") == "500000")
  }

  test("outlier: noise below the volume threshold stays silent") {
    val peers = (0 until 8).map(i => net(0, 1000L + i, "db.exe", s"10.0.1.$i", 5000))
    val oddButSmall = Seq(net(0, 2000L, "db.exe", "6.6.6.6", 50_000))
    assert(QueryEngine.run(df(spark, peers ++ oddButSmall), outlierQuery).isEmpty)
  }

  test("outlier: windows cluster independently") {
    val w0 = (0 until 8).map(i => net(0, 1000L + i, "db.exe", s"10.0.1.$i", 5000)) :+
      net(0, 2000L, "db.exe", "6.6.6.6", 500_000)
    val w1 = (0 until 8).map(i => net(0, 11_000L + i, "db.exe", s"10.0.1.$i", 5000))
    val alerts = QueryEngine.run(df(spark, w0 ++ w1), outlierQuery)
    assert(alerts.map(_.win) == Seq(0))
  }

  // ------------------------------------------------------------------- rule

  test("rule: alerts carry matched attributes and event time") {
    val q = Parser.parse(
      """proc p1["%evil.exe"] write file f1 as evt1
        |return distinct p1, f1""".stripMargin, "rule")
    val evs = Seq(
      file(0, 5000L, "good.exe", "write", "/tmp/ok"),
      file(0, 7000L, "evil.exe", "write", "/tmp/loot"))
    val alerts = QueryEngine.run(df(spark, evs), q)
    assert(alerts == Seq(AlertRecord("rule", -1L, 7000L,
      Map("p1" -> "evil.exe", "f1" -> "/tmp/loot"))))
  }

  test("alert-less stateful query emits every window state as a result") {
    val q = Parser.parse(
      """proc p write ip i as evt #time(10 s)
        |state ss { amt := sum(evt.amount) } group by p
        |return p, ss.amt""".stripMargin, "noalert")
    val evs = Seq(net(0, 1000L, "a.exe", "1.1.1.1", 10),
                  net(0, 11_000L, "a.exe", "1.1.1.1", 20))
    val out = QueryEngine.run(df(spark, evs), q)
    assert(out.map(_.values("ss_amt")) == Seq("10", "20"))
  }

  test("alert timestamps are window ends for stateful models") {
    val evs = Seq(net(0, 100_000L, "burst.exe", "1.1.1.1", 20_000))
    val alerts = QueryEngine.run(df(spark, evs), smaQuery)
    assert(alerts.head.ts == 110_000L) // window [100k, 110k)
  }
}
