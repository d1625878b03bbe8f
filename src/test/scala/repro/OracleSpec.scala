package repro

import org.apache.spark.sql.functions._
import repro.events.MonitoringData

/** The DuckDB oracle itself: accepts equivalent results, rejects wrong
  * ones — so a green oracle check in other suites means something.
  */
class OracleSpec extends SparkSpec {

  private lazy val ev = MonitoringData.events(spark, sf = 0.001, seed = 0).cache()

  test("accepts an identical aggregation") {
    val got = ev.groupBy("event_type")
      .agg(count(lit(1)).cast("double").as("n"), sum("amount").cast("double").as("a"))
    Oracle.assertEquivalent(got,
      """SELECT event_type,
        |       CAST(COUNT(*) AS DOUBLE) AS n,
        |       SUM(CAST(amount AS DOUBLE)) AS a
        |FROM events GROUP BY event_type""".stripMargin,
      "events" -> ev)
  }

  test("rejects a wrong aggregate") {
    val wrong = ev.groupBy("event_type")
      .agg((count(lit(1)) + 1).cast("double").as("n"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT event_type, CAST(COUNT(*) AS DOUBLE) AS n FROM events GROUP BY event_type",
        "events" -> ev)
    }
  }

  test("rejects mismatched column sets") {
    val got = ev.select(col("event_id").as("wrong_name")).limit(1)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got, "SELECT event_id FROM events LIMIT 1",
        "events" -> ev)
    }
  }

  test("handles nulls consistently on both sides") {
    import spark.implicits._
    val df = Seq(("a", Some(1.0)), ("b", None)).toDF("k", "v")
    Oracle.assertEquivalent(df,
      "SELECT k, CAST(v AS DOUBLE) AS v FROM t", "t" -> df)
  }

  test("joins validate across engines") {
    // Process starts joined to the file events of the started executable.
    val starts = ev.filter(col("event_type") === "process").as("p")
    val files = ev.filter(col("event_type") === "file").as("f")
    val got = starts.join(files,
        col("p.agentid") === col("f.agentid") && col("p.obj_exe") === col("f.subj_exe"))
      .groupBy(col("f.op").as("op"))
      .agg(count(lit(1)).cast("double").as("n"))
    assert(got.count() > 0)
    Oracle.assertEquivalent(got,
      """SELECT f.op AS op, CAST(COUNT(*) AS DOUBLE) AS n
        |FROM events p JOIN events f
        |  ON p.agentid = f.agentid AND p.obj_exe = f.subj_exe
        |WHERE p.event_type = 'process' AND f.event_type = 'file'
        |GROUP BY f.op""".stripMargin,
      "events" -> ev)
  }
}
