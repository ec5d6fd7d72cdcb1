package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.triggers.Trigger
import repro.evaluator.{EvalResult, Evaluator}
import repro.modelstorage.ModelStorage
import repro.selector.{MetadataBackend, NewSample, SelectorContext, StrategyFactory,
  TriggerSampleStorage}
import repro.storage.{FileSystemWrapper, SampleMeta, SampleRegistry, StorageService}
import repro.trainer._

/** A named evaluation set (e.g. one per CLOC year): the sample keys to
  * evaluate each trained model on.
  */
final case class EvalSet(name: String, keys: Array[Long])

/** Everything recorded about one trigger's training run. */
final case class TriggerReport(triggerId: Int, training: TrainingResult,
                               storedModelBytes: Long,
                               evals: Map[String, Seq[EvalResult]])

/** The pipeline execution's output: one report per trigger, in order.
  * `accuracyMatrix` renders the Fig. 9/10 protocol — each trained model
  * evaluated on each eval set.
  */
final case class PipelineReport(pipelineName: String, triggers: Seq[TriggerReport]) {
  /** (trigger id, eval set name) -> accuracy. */
  def accuracyMatrix: Map[(Int, String), Double] =
    (for {
      t            <- triggers
      (set, evals) <- t.evals
      acc          <- evals.find(_.metric == "Accuracy")
    } yield (t.triggerId, set) -> acc.value).toMap
}

/** The supervisor server (§4.1.1): orchestrates one pipeline end-to-end in
  * *experiment mode* — existing data is replayed in timestamp order as if
  * it were streaming in (the storage "announces existing data points as
  * new"), the triggering policy is evaluated on every incoming batch,
  * and each trigger runs selection → training → model storage →
  * evaluation (§3.4's data flow, steps 1–7).
  *
  * @param backendFactory builds the selector's metadata backend from the
  *                       pipeline's `storage_backend` name; the run closes
  *                       it when it ends, also on failure
  */
final class Supervisor(pipeline: PipelineConfig, registry: SampleRegistry,
                       storage: StorageService, fs: FileSystemWrapper, workDir: String,
                       spark: Option[SparkSession] = None,
                       transform: Transform = IdentityTransform,
                       backendFactory: (String, FileSystemWrapper, String,
                         Option[SparkSession]) => MetadataBackend = StrategyFactory.backend) {

  /** Replay all registered data and return the per-trigger reports.
    *
    * @param replayBatchSize how many samples the storage announces per
    *                        batch S_t
    * @param evalSets        evaluation sets; each trained model is
    *                        evaluated on every set (the accuracy matrix)
    * @param trailingTrigger fire one final trigger for leftover samples
    *                        after the replay ends, as Modyn's experiment
    *                        mode does for a trailing partial period
    */
  def runExperiment(replayBatchSize: Int = 1000,
                    evalSets: Seq[EvalSet] = Seq.empty,
                    trailingTrigger: Boolean = false): PipelineReport = {
    require(replayBatchSize > 0, "replayBatchSize must be positive")

    val backend = backendFactory(pipeline.selectionConfig.getOrElse("storage_backend", "local"),
      fs, s"$workDir/selector", spark)
    try {
      val tss = new TriggerSampleStorage(fs, s"$workDir/tss")
      val ctx = SelectorContext(
        backend = backend,
        tss = tss,
        partitionSize = pipeline.partitionSize,
        seed = pipeline.seed,
        spark = spark)
      val strategy = StrategyFactory.strategy(
        pipeline.selectionName, pipeline.selectionConfig, pipeline.downsampling, ctx)
      val triggerPolicy = Trigger.byName(pipeline.triggerId, pipeline.triggerConfig)
      val parser        = ModelFactory.bytesParser(pipeline.bytesParser, pipeline.modelConfig)
      val trainer       = new TrainerServer(storage, parser, transform)
      val modelStore    = new ModelStorage(fs, s"$workDir/models", pipeline.fullModelInterval)
      val model         = ModelFactory.model(
        pipeline.modelId, pipeline.modelConfig, pipeline.sgd, pipeline.seed)

      val reports = Seq.newBuilder[TriggerReport]
      var trained = 0 // number of completed triggers

      def fireTrigger(): Unit = {
        val triggerId = strategy.nextTriggerId
        val tts       = strategy.onTrigger()
        if (tts.totalSamples == 0) return // nothing selected; skip the run

        if (pipeline.usePreviousModel) {
          if (trained > 0) model.setWeights(modelStore.load(trained - 1))
          // else: very first training starts from the random initialization.
        } else {
          // Train from scratch: re-initialize with a per-trigger seed.
          model.setWeights(ModelFactory.model(pipeline.modelId, pipeline.modelConfig,
            pipeline.sgd, pipeline.seed + 1000L * (triggerId + 1)).weights)
        }

        val runCfg = TrainingRunConfig(
          epochs = pipeline.epochs,
          batchSize = pipeline.batchSize,
          usePreviousModel = pipeline.usePreviousModel,
          dataset = pipeline.dataloader,
          seed = pipeline.seed ^ triggerId.toLong)
        val result = trainer.runTraining(model, tts, runCfg, strategy.downsampling)

        val bytes = modelStore.store(trained, model.weights)
        val evals = evalSets.map { set =>
          set.name -> Evaluator.evaluate(model, evalFeatures(set, parser),
            pipeline.evalMetrics.filter(m => m == "Accuracy" || m == "F1Macro")
              .map(Evaluator.decomposableByName),
            pipeline.evalMetrics.filter(_ == "RocAuc").map(Evaluator.holisticByName))
        }.toMap
        reports += TriggerReport(triggerId, result, bytes, evals)
        trained += 1
      }

      registry.allSamplesByTime().grouped(replayBatchSize).foreach { batch =>
        val newSamples  = batch.map(m => NewSample(m.key, m.label, m.timestampSec))
        val triggerIdxs = triggerPolicy.inform(newSamples)
        // §3.1: the trigger training set includes samples up to and
        // *including* the trigger-causing sample.
        var consumed = 0
        triggerIdxs.foreach { idx =>
          strategy.inform(newSamples.slice(consumed, idx + 1))
          consumed = idx + 1
          fireTrigger()
        }
        if (consumed < newSamples.length) strategy.inform(newSamples.drop(consumed))
      }
      if (trailingTrigger) fireTrigger()

      PipelineReport(pipeline.pipelineName, reports.result())
    } finally backend.close()
  }

  /** Stream an eval set's (features, label) pairs through storage, parser
    * and the pipeline transform — the feature space the model trained in.
    */
  private def evalFeatures(set: EvalSet, parser: BytesParser): Iterator[(Array[Float], Int)] =
    storage.retrieve(set.keys, nThreads = 4).flatMap { chunk =>
      (0 until chunk.size).iterator.map { i =>
        (transform(parser.parse(chunk.payloads(i))), chunk.labels(i).toInt)
      }
    }
}

object Supervisor {
  /** Convenience for tests/jobs: per-year CLOC eval sets from metadata. */
  def yearlyEvalSets(metas: Seq[SampleMeta]): Seq[EvalSet] =
    metas.groupBy(m => repro.datagen.ClocLite.yearOfTimestamp(m.timestampSec))
      .toSeq.sortBy(_._1)
      .map { case (year, ms) => EvalSet(year.toString, ms.map(_.key).toArray) }
}
