package repro.queries

import repro.events.AttackTrace.AttackerIp
import repro.saql.Ast.SaqlQuery
import repro.saql.Parser

/** The 8 SAQL queries the demo constructs for the APT attack (§III):
  * one rule-based query per attack step c1–c5 (built from knowledge of the
  * attack) plus three advanced anomaly queries that assume no knowledge of
  * the attack details (invariant-based for c2, time-series SMA and
  * outlier-based DBSCAN for c5).
  *
  * Query text follows the paper's Queries 1–4 verbatim where given
  * (Query 1 = [[r5DataExfiltration]], Query 2 = [[a2TimeSeriesSma]],
  * Query 3's shape = [[a1InvariantExcel]], Query 4 = [[a3OutlierDbscan]]),
  * with the obfuscated `agentid = xxx` / `dstip = "XXX.129"` placeholders
  * bound to the testbed's victim/db hosts and attacker IP.
  */
object DemoQueries {

  /** c1 — initial compromise: the mail client materialises a macro-bearing
    * spreadsheet attachment.
    */
  def r1InitialCompromise(victim: Long): SaqlQuery = Parser.parse(
    s"""
       |agentid = $victim
       |proc p1["%outlook.exe"] write file f1["%.xlsm"] as evt1
       |return distinct p1, f1
       |""".stripMargin, "r1_initial_compromise")

  /** c2 — malware infection: Excel spawns a process that drops a script. */
  def r2MalwareInfection(victim: Long): SaqlQuery = Parser.parse(
    s"""
       |agentid = $victim
       |proc p1["%excel.exe"] start proc p2 as evt1
       |proc p2 write file f1["%.vbs"] as evt2
       |with evt1 -> evt2
       |return distinct p1, p2, f1
       |""".stripMargin, "r2_malware_infection")

  /** c3 — privilege escalation: cmd runs the credential dumper, which
    * reads the SAM database.
    */
  def r3PrivilegeEscalation(victim: Long): SaqlQuery = Parser.parse(
    s"""
       |agentid = $victim
       |proc p1["%cmd.exe"] start proc p2["%gsecdump.exe"] as evt1
       |proc p2 read file f1["%sam"] as evt2
       |with evt1 -> evt2
       |return distinct p1, p2, f1
       |""".stripMargin, "r3_privilege_escalation")

  /** c4 — penetration into the DB server: a delivered VBScript drops the
    * malware, starts it, and the new backdoor beacons to the attacker.
    */
  def r4Penetration(db: Long): SaqlQuery = Parser.parse(
    s"""
       |agentid = $db
       |proc p1["%cscript.exe"] write file f1["%sbblv.exe"] as evt1
       |proc p1 start proc p2["%sbblv.exe"] as evt2
       |proc p2 write ip i1[dstip="$AttackerIp"] as evt3
       |with evt1 -> evt2 -> evt3
       |return distinct p1, f1, p2, i1
       |""".stripMargin, "r4_penetration")

  /** c5 — data exfiltration: the paper's Query 1, verbatim shape. */
  def r5DataExfiltration(db: Long): SaqlQuery = Parser.parse(
    s"""
       |agentid = $db // SQL database server
       |proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
       |proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
       |proc p4["%sbblv.exe"] read file f1 as evt3
       |proc p4 read || write ip i1[dstip="$AttackerIp"] as evt4
       |with evt1 -> evt2 -> evt3 -> evt4
       |return distinct p1, p2, p3, f1, p4, i1 // p1 -> p1.exe_name
       |""".stripMargin, "r5_data_exfiltration")

  /** Advanced query 1 — invariant-based (paper §III: "all unique processes
    * started by Excel in the first 100 sliding windows"; detects c2).
    */
  def a1InvariantExcel(victim: Long): SaqlQuery = Parser.parse(
    s"""
       |agentid = $victim
       |proc p1["%excel.exe"] start proc p2 as evt #time(10 s)
       |state ss {
       |  set_proc := set(p2.exe_name)
       |} group by p1
       |invariant[100][offline] {
       |  a := empty_set // invariant init
       |  a = a union ss.set_proc // invariant update
       |}
       |alert |ss.set_proc diff a| > 0
       |return p1, ss.set_proc
       |""".stripMargin, "a1_invariant_excel")

  /** Advanced query 2 — time-series SMA (the paper's Query 2, verbatim):
    * per-process network-write volume spikes on the DB server (detects c5).
    */
  def a2TimeSeriesSma(db: Long): SaqlQuery = Parser.parse(
    s"""
       |agentid = $db
       |proc p write ip i as evt #time(10 min)
       |state[3] ss {
       |  avg_amount := avg(evt.amount)
       |} group by p
       |alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)
       |return p, ss[0].avg_amount, ss[1].avg_amount, ss[2].avg_amount
       |""".stripMargin, "a2_timeseries_sma")

  /** Advanced query 3 — outlier-based DBSCAN (the paper's Query 4,
    * verbatim): per-destination-IP volume of the SQL server process, peer
    * comparison via DBSCAN (detects c5).
    */
  def a3OutlierDbscan(db: Long): SaqlQuery = Parser.parse(
    s"""
       |agentid = $db // SQL database server
       |proc p["%sqlservr.exe"] read || write ip i as evt #time(10 min)
       |state ss {
       |  amt := sum(evt.amount)
       |} group by i.dstip
       |cluster(points=all(ss.amt), distance="ed", method="DBSCAN(100000, 5)")
       |alert cluster.outlier && ss.amt > 1000000
       |return i.dstip, ss.amt
       |""".stripMargin, "a3_outlier_dbscan")

  /** All 8 demo queries, each with the attack step it detects and its
    * evidence: does an alert's `return` values carry the step's artifact?
    */
  def all(victim: Long = 0L, db: Long = 1L): Seq[(String, SaqlQuery, Map[String, String] => Boolean)] = Seq(
    ("c1", r1InitialCompromise(victim), v => v.get("f1").exists(_.endsWith(".xlsm"))),
    ("c2", r2MalwareInfection(victim), v => v.get("p2").contains("wscript.exe")),
    ("c3", r3PrivilegeEscalation(victim), v => v.get("p2").contains("gsecdump.exe")),
    ("c4", r4Penetration(db), v => v.get("p2").contains("sbblv.exe")),
    ("c5", r5DataExfiltration(db), v => v.get("p4").contains("sbblv.exe")),
    ("c2", a1InvariantExcel(victim), v => v.get("ss_set_proc").exists(_.contains("wscript.exe"))),
    ("c5", a2TimeSeriesSma(db), v => v.get("p").contains("sbblv.exe")),
    ("c5", a3OutlierDbscan(db), v => v.get("i_dstip").contains(AttackerIp)),
  )
}
