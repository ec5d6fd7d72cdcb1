package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.TestUtil.withTmpDir
import repro.datagen.{ClocLite, CriteoLite}
import repro.evaluator.Evaluator
import repro.modelstorage.ModelStorage
import repro.selector.DuckDbBackend
import repro.storage.{LocalFileSystemWrapper, SampleRegistry, StorageService}
import repro.trainer.{ModelFactory, NormalizeTransform}

class SupervisorSpec extends SparkSpec {
  private val fs = new LocalFileSystemWrapper

  private def clocPipeline(backend: String, extra: String = ""): PipelineConfig =
    PipelineConfig.fromYaml(
      s"""pipeline: cloc_test
         |seed: 3
         |model:
         |  id: SoftmaxRegression
         |  config:
         |    num_classes: 6
         |    feature_dim: 16
         |data:
         |  dataset_id: cloc
         |trigger:
         |  id: TimeTrigger
         |  trigger_config:
         |    every_seconds: 31536000
         |training:
         |  use_previous_model: True
         |  batch_size: 32
         |  epochs: 2
         |  partition_size: 100
         |  optimizer:
         |    lr: 0.05
         |    momentum: 0.9
         |  selection_strategy:
         |    name: NewDataStrategy
         |    config:
         |      storage_backend: "$backend"
         |      reset_after_trigger: True
         |$extra""".stripMargin)

  test("end-to-end CLOC pipeline: yearly triggers, training, evaluation") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      val metas = ClocLite.generate(fs, registry, s"$dir/data", samplesPerYear = 60,
        numClasses = 6, featureDim = 16, years = 2004 to 2007)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(clocPipeline("local"), registry, storage, fs, s"$dir/work")
      val evalSets = Supervisor.yearlyEvalSets(metas)
      val report = sup.runExperiment(replayBatchSize = 50, evalSets = evalSets,
        trailingTrigger = true)

      // 4 years of data with a 1-year trigger: triggers fire on the first
      // sample of 2005/2006/2007, plus the trailing trigger for 2007.
      assert(report.triggers.size == 4)
      report.triggers.foreach { t =>
        assert(t.training.samplesTrainedOn > 0)
        assert(t.storedModelBytes > 0)
        assert(t.evals.keySet == Set("2004", "2005", "2006", "2007"))
      }
      // A trained model beats random guessing (1/6) on its training year.
      val lastAcc = report.accuracyMatrix((3, "2007"))
      assert(lastAcc > 1.0 / 6, s"accuracy $lastAcc")
      registry.close()
    }
  }

  test("the metadata backend is closed when training fails") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      ClocLite.generate(fs, registry, s"$dir/data", 20, 4, 16, years = 2004 to 2005)
      // Training cannot read payloads whose files are gone.
      fs.list(s"$dir/data").filterNot(_.endsWith(".label")).foreach(fs.delete)
      var backend: DuckDbBackend = null
      val sup = new Supervisor(clocPipeline("database"), registry,
        new StorageService(registry, fs), fs, s"$dir/work",
        backendFactory = (_, _, _, _) => { backend = new DuckDbBackend; backend })
      intercept[java.io.IOException] { sup.runExperiment(replayBatchSize = 25) }
      intercept[java.sql.SQLException] { backend.count }
      registry.close()
    }
  }

  test("trigger training sets cover exactly the trigger's year (reset mode)") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      ClocLite.generate(fs, registry, s"$dir/data", 40, 4, 16, years = 2004 to 2006)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(clocPipeline("local"), registry, storage, fs, s"$dir/work")
      val report = sup.runExperiment(replayBatchSize = 25, trailingTrigger = true)
      assert(report.triggers.size == 3)
      // First trigger trains on 2004's data (40 samples) + the one
      // 2005 sample that caused the trigger (inclusive semantics).
      assert(report.triggers(0).training.samplesTrainedOn == 2 * 41) // 2 epochs
      registry.close()
    }
  }

  test("experiment mode with the spark parquet backend") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      ClocLite.generate(fs, registry, s"$dir/data", 30, 4, 16, years = 2004 to 2005)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(clocPipeline("spark"), registry, storage, fs,
        s"$dir/work", spark = Some(spark))
      val report = sup.runExperiment(replayBatchSize = 20, trailingTrigger = true)
      assert(report.triggers.size == 2)
      assert(report.triggers.forall(_.training.samplesTrainedOn > 0))
      registry.close()
    }
  }

  test("criteo pipeline with amount trigger and downsampling") {
    withTmpDir { dir =>
      val pipeline = PipelineConfig.fromYaml(
        """pipeline: criteo_test
          |model:
          |  id: LogisticRegression
          |  config:
          |    hash_dim: 32
          |data:
          |  dataset_id: criteo
          |trigger:
          |  id: DataAmountTrigger
          |  trigger_config:
          |    data_points_for_trigger: 200
          |training:
          |  batch_size: 64
          |  partition_size: 100
          |  selection_strategy:
          |    name: CoresetStrategy
          |    config:
          |      storage_backend: "database"
          |      presampling: NewDataStrategy
          |    downsampling_config:
          |      name: GradNormCE
          |      ratio: 0.5
          |""".stripMargin)
      val registry = new SampleRegistry
      CriteoLite.generate(fs, registry, s"$dir/data", 500, samplesPerFile = 100)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(pipeline, registry, storage, fs, s"$dir/work")
      val report = sup.runExperiment(replayBatchSize = 120)
      assert(report.triggers.size == 2) // 500 samples / 200 per trigger
      // 200 presampled, downsampled to 100 each.
      report.triggers.foreach(t => assert(t.training.samplesTrainedOn == 100))
      registry.close()
    }
  }

  test("from-scratch training re-initializes per trigger") {
    withTmpDir { dir =>
      val p = clocPipeline("local").copy(usePreviousModel = false, epochs = 1)
      val registry = new SampleRegistry
      ClocLite.generate(fs, registry, s"$dir/data", 30, 4, 16, years = 2004 to 2006)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(p, registry, storage, fs, s"$dir/work")
      val report = sup.runExperiment(replayBatchSize = 30, trailingTrigger = true)
      assert(report.triggers.size == 3)
      registry.close()
    }
  }

  test("model storage keeps a restorable model per trigger") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      ClocLite.generate(fs, registry, s"$dir/data", 25, 4, 16, years = 2004 to 2006)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(clocPipeline("local"), registry, storage, fs, s"$dir/work")
      sup.runExperiment(replayBatchSize = 25, trailingTrigger = true)
      val ms = new repro.modelstorage.ModelStorage(fs, s"$dir/work/models")
      (0 until 3).foreach { i =>
        val w = ms.load(i)
        assert(w.length == 6 * 16 + 6)
      }
      registry.close()
    }
  }

  test("evaluation applies the pipeline transform, like training") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      val metas = ClocLite.generate(fs, registry, s"$dir/data", 40, 4, 16, years = 2004 to 2006)
      val storage = new StorageService(registry, fs)
      val p = clocPipeline("local")
      val t = new NormalizeTransform(3f, 0.5f)
      val sup = new Supervisor(p, registry, storage, fs, s"$dir/work", transform = t)
      val evalSets = Supervisor.yearlyEvalSets(metas)
      val report = sup.runExperiment(replayBatchSize = 25, evalSets = evalSets,
        trailingTrigger = true)
      val parser = ModelFactory.bytesParser(p.bytesParser, p.modelConfig)
      val models = new ModelStorage(fs, s"$dir/work/models")
      report.triggers.zipWithIndex.foreach { case (trigger, i) =>
        val model = ModelFactory.model(p.modelId, p.modelConfig, p.sgd, p.seed)
        model.setWeights(models.load(i))
        evalSets.foreach { set =>
          val features = storage.retrieve(set.keys, nThreads = 1).flatMap { c =>
            (0 until c.size).iterator.map(j => (t(parser.parse(c.payloads(j))), c.labels(j).toInt))
          }
          assert(trigger.evals(set.name) == Evaluator.evaluate(model, features),
            s"trigger ${trigger.triggerId}, set ${set.name}")
        }
      }
      registry.close()
    }
  }
}
