package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.events.{AttackTrace, MonitoringData}
import repro.saql.Ast.SaqlQuery
import repro.saql.Parser
import TestEvents.rulePlan

/** Multi-event matcher: Catalyst sequence joins, oracle-checked on DuckDB. */
class EventMatcherSpec extends SparkSpec {

  private lazy val stream =
    AttackTrace.withBackground(spark, sf = 0.002, seed = 0, attackStartMs = 1_800_000L)
      .cache()

  private def projected(q: SaqlQuery) = {
    val plan = rulePlan(q)
    EventMatcher.project(EventMatcher.matches(stream, plan), plan)
  }

  test("single-pattern match finds the phishing attachment write") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%outlook.exe"] write file f1["%.xlsm"] as evt1
        |return distinct p1, f1""".stripMargin, "r1")
    val out = projected(q).collect()
    assert(out.length == 1)
    assert(out.head.getAs[String]("f1") == "/home/user/mail/invoice.xlsm")
  }

  test("two-pattern sequence with subject/object variable hand-off") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%excel.exe"] start proc p2 as evt1
        |proc p2 write file f1["%.vbs"] as evt2
        |with evt1 -> evt2
        |return distinct p1, p2, f1""".stripMargin, "r2")
    val out = projected(q).collect()
    assert(out.length == 1)
    assert(out.head.getAs[String]("p2") == "wscript.exe")
  }

  test("temporal order is enforced: reversed chain finds nothing") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%excel.exe"] start proc p2 as evt1
        |proc p2 write file f1["%.vbs"] as evt2
        |with evt2 -> evt1
        |return distinct p1, p2, f1""".stripMargin, "r2rev")
    assert(EventMatcher.matches(stream, rulePlan(q)).count() == 0)
  }

  test("the paper's Query 1 (4-pattern chain) matches exactly the exfiltration") {
    val q = repro.queries.DemoQueries.r5DataExfiltration(1L)
    val out = projected(q).collect()
    assert(out.length == 1)
    val r = out.head
    assert(r.getAs[String]("p1") == "cmd.exe")
    assert(r.getAs[String]("p2") == "osql.exe")
    assert(r.getAs[String]("p3") == "sqlservr.exe")
    assert(r.getAs[String]("p4") == "sbblv.exe")
    assert(r.getAs[String]("i1") == AttackTrace.AttackerIp)
    assert(r.getAs[String]("f1") == "/data/backup1.dmp")
  }

  test("alert timestamp is the last event of the first full match") {
    val q = repro.queries.DemoQueries.r5DataExfiltration(1L)
    val out = projected(q).collect()
    // First evt4 after evt3 (ts=1.8M+1.55M... the 1,560,000 offset exfil write).
    assert(out.head.getAs[Long]("__alert_ts") == 1_800_000L + 1_560_000L)
  }

  test("global agent constraint isolates hosts") {
    val q = Parser.parse(
      """agentid = 3
        |proc p1["%excel.exe"] start proc p2 as evt1
        |proc p2 write file f1["%.vbs"] as evt2
        |with evt1 -> evt2
        |return distinct p1, p2, f1""".stripMargin)
    assert(EventMatcher.matches(stream, rulePlan(q)).count() == 0)
  }

  test("oracle: single-pattern projection equals DuckDB") {
    val q = Parser.parse(
      """proc p1["%gsecdump.exe"] read file f1 as evt1
        |return distinct p1, f1""".stripMargin)
    val got = projected(q)
      .select("p1", "f1") // oracle compares scalar projections
    Oracle.assertEquivalent(got,
      """SELECT DISTINCT subj_exe AS p1, file_name AS f1
        |FROM events
        |WHERE event_type = 'file' AND op = 'read' AND subj_exe LIKE '%gsecdump.exe'
        |""".stripMargin,
      "events" -> stream)
  }

  test("oracle: two-pattern sequence join equals DuckDB") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%excel.exe"] start proc p2 as evt1
        |proc p2 write file f1 as evt2
        |with evt1 -> evt2
        |return distinct p1, p2, f1""".stripMargin)
    val got = projected(q)
      .select("p1", "p2", "f1")
    Oracle.assertEquivalent(got,
      """SELECT DISTINCT a.subj_exe AS p1, a.obj_exe AS p2, b.file_name AS f1
        |FROM events a, events b
        |WHERE a.event_type = 'process' AND a.op = 'start'
        |  AND a.subj_exe LIKE '%excel.exe' AND CAST(a.agentid AS BIGINT) = 0
        |  AND b.event_type = 'file' AND b.op = 'write'
        |  AND CAST(b.agentid AS BIGINT) = 0
        |  AND a.obj_exe = b.subj_exe
        |  AND CAST(a.obj_pid AS BIGINT) = CAST(b.subj_pid AS BIGINT)
        |  AND CAST(a.ts AS BIGINT) < CAST(b.ts AS BIGINT)
        |""".stripMargin,
      "events" -> stream)
  }

  test("oracle: file-variable join (same f1 in two patterns) equals DuckDB") {
    val q = Parser.parse(
      """agentid = 1
        |proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
        |proc p4["%sbblv.exe"] read file f1 as evt3
        |with evt2 -> evt3
        |return distinct p3, f1, p4""".stripMargin)
    val got = projected(q)
      .select("p3", "f1", "p4")
    Oracle.assertEquivalent(got,
      """SELECT DISTINCT a.subj_exe AS p3, a.file_name AS f1, b.subj_exe AS p4
        |FROM events a, events b
        |WHERE a.event_type = 'file' AND a.op = 'write'
        |  AND a.subj_exe LIKE '%sqlservr.exe' AND a.file_name LIKE '%backup1.dmp'
        |  AND CAST(a.agentid AS BIGINT) = 1
        |  AND b.event_type = 'file' AND b.op = 'read'
        |  AND b.subj_exe LIKE '%sbblv.exe' AND b.file_name LIKE '%backup1.dmp'
        |  AND CAST(b.agentid AS BIGINT) = 1
        |  AND a.file_name = b.file_name
        |  AND CAST(a.ts AS BIGINT) < CAST(b.ts AS BIGINT)
        |""".stripMargin,
      "events" -> stream)
  }

  test("no matches on benign-only stream for attack-specific patterns") {
    val benign = MonitoringData.events(spark, sf = 0.002, seed = 0)
    val q = repro.queries.DemoQueries.r5DataExfiltration(1L)
    assert(EventMatcher.matches(benign, rulePlan(q)).count() == 0)
  }

  test("ip identity join: same i1 across patterns joins on dstip") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%backdoor.exe"] write ip i1 as evt1
        |proc p2["%gsecdump.exe"] write ip i1 as evt2
        |with evt1 -> evt2
        |return distinct p1, p2, i1""".stripMargin)
    val out = projected(q).collect()
    assert(out.length == 1)
    assert(out.head.getAs[String]("i1") == AttackTrace.AttackerIp)
  }

  test("distinct collapses repeated matches and keeps earliest alert ts") {
    val q = Parser.parse(
      """agentid = 1
        |proc p4["%sbblv.exe"] write ip i1[dstip="203.0.113.129"] as evt1
        |return distinct p4, i1""".stripMargin)
    val out = projected(q).collect()
    assert(out.length == 1) // 5 events collapse to one distinct row
    assert(out.head.getAs[Long]("__alert_ts") == 1_800_000L + 930_000L)
  }
}
