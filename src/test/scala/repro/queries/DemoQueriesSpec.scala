package repro.queries

import repro.SparkSpec
import repro.core.QueryEngine
import repro.events.AttackTrace
import repro.saql.Ast._

/** End-to-end: the 8 demo queries over the replayed attack-in-background
  * stream (the paper's demonstration scenario, SF=0.01).
  */
class DemoQueriesSpec extends SparkSpec {

  private val attackStart = 1_800_000L
  private lazy val stream =
    AttackTrace.withBackground(spark, sf = 0.01, seed = 0,
      attackStartMs = attackStart).cache()

  test("all 8 demo queries parse into their model families") {
    val qs = DemoQueries.all()
    assert(qs.size == 8)
    val models = qs.map(_._2.modelType)
    assert(models.count(_ == RuleModel) == 5)
    assert(models.contains(InvariantModel))
    assert(models.contains(TimeSeriesModel))
    assert(models.contains(OutlierModel))
  }

  test("r1 detects the c1 phishing attachment") {
    val alerts = QueryEngine.run(stream, DemoQueries.r1InitialCompromise(0L))
    assert(alerts.size == 1)
    assert(alerts.head.values("f1") == "/home/user/mail/invoice.xlsm")
    assert(alerts.head.ts == attackStart + 5_000L)
  }

  test("r2 detects the c2 macro dropping a script") {
    val alerts = QueryEngine.run(stream, DemoQueries.r2MalwareInfection(0L))
    assert(alerts.size == 1)
    assert(alerts.head.values("p2") == "wscript.exe")
    assert(alerts.head.values("f1") == "/tmp/dropper.vbs")
  }

  test("r3 detects the c3 credential dumping") {
    val alerts = QueryEngine.run(stream, DemoQueries.r3PrivilegeEscalation(0L))
    assert(alerts.size == 1)
    assert(alerts.head.values("p2") == "gsecdump.exe")
  }

  test("r4 detects the c4 backdoor drop on the database server") {
    val alerts = QueryEngine.run(stream, DemoQueries.r4Penetration(1L))
    assert(alerts.size == 1)
    assert(alerts.head.values("p2") == "sbblv.exe")
    assert(alerts.head.values("i1") == AttackTrace.AttackerIp)
  }

  test("r5 (paper Query 1) detects the c5 exfiltration chain") {
    val alerts = QueryEngine.run(stream, DemoQueries.r5DataExfiltration(1L))
    assert(alerts.size == 1)
    val v = alerts.head.values
    assert(v("p2") == "osql.exe" && v("p4") == "sbblv.exe" &&
           v("f1") == "/data/backup1.dmp" && v("i1") == AttackTrace.AttackerIp)
  }

  test("rule queries raise no false alerts on benign-only hosts") {
    // Same queries pointed at an agent the attack never touched.
    assert(QueryEngine.run(stream, DemoQueries.r1InitialCompromise(1L)).isEmpty)
    assert(QueryEngine.run(stream, DemoQueries.r5DataExfiltration(0L)).isEmpty)
  }

  test("a1 invariant query flags Excel's unseen child (c2), nothing else") {
    val alerts = QueryEngine.run(stream, DemoQueries.a1InvariantExcel(0L))
    assert(alerts.nonEmpty)
    assert(alerts.forall(_.values("ss_set_proc").contains("wscript.exe")))
    // Exactly the attack window: excel start at attackStart + 65s.
    assert(alerts.map(_.win) == Seq((attackStart + 65_000L) / 10_000L))
  }

  test("a2 time-series SMA query flags the exfiltration volume spike (c5)") {
    val alerts = QueryEngine.run(stream, DemoQueries.a2TimeSeriesSma(1L))
    val procs = alerts.map(_.values("p")).toSet
    assert(procs.contains("sbblv.exe"))
    // Every alerted process is an attack actor, not benign background.
    assert(procs.subsetOf(Set("sbblv.exe", "sqlservr.exe")))
  }

  test("a2 alert values expose the moving-average evidence") {
    val alerts = QueryEngine.run(stream, DemoQueries.a2TimeSeriesSma(1L))
    val sb = alerts.find(_.values("p") == "sbblv.exe").get
    assert(sb.values("ss_avg_amount").toDouble > 1_000_000)
    assert(sb.values.contains("ss1_avg_amount") && sb.values.contains("ss2_avg_amount"))
  }

  test("a3 outlier query isolates the attacker IP via DBSCAN (c5)") {
    val alerts = QueryEngine.run(stream, DemoQueries.a3OutlierDbscan(1L))
    assert(alerts.nonEmpty)
    assert(alerts.map(_.values("i_dstip")).toSet == Set(AttackTrace.AttackerIp))
    assert(alerts.forall(_.values("ss_amt").toDouble > 1_000_000))
  }

  test("advanced queries stay silent on the benign-only stream") {
    val benign = repro.events.MonitoringData.events(spark, sf = 0.01, seed = 0).cache()
    assert(QueryEngine.run(benign, DemoQueries.a1InvariantExcel(0L)).isEmpty)
    assert(QueryEngine.run(benign, DemoQueries.a2TimeSeriesSma(1L)).isEmpty)
    assert(QueryEngine.run(benign, DemoQueries.a3OutlierDbscan(1L)).isEmpty)
    benign.unpersist()
  }

  test("detection latency: every step is detected within its attack phase") {
    // Rule alerts fire at the final matched event; all within the stream.
    val latencies = Seq(
      "c1" -> QueryEngine.run(stream, DemoQueries.r1InitialCompromise(0L)),
      "c3" -> QueryEngine.run(stream, DemoQueries.r3PrivilegeEscalation(0L)),
      "c5" -> QueryEngine.run(stream, DemoQueries.r5DataExfiltration(1L)),
    ).map { case (step, alerts) =>
      step -> (alerts.head.ts - (attackStart + AttackTrace.stepStartMs(step)))
    }.toMap
    assert(latencies("c1") == 5_000L)   // attachment write, 5s into c1
    assert(latencies("c3") == 50_000L)  // SAM read completes 50s into c3
    assert(latencies("c5") == 60_000L)  // first exfil write 60s into c5
  }
}
